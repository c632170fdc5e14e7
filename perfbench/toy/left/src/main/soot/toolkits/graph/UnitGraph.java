package soot.toolkits.graph;

import java.util.ArrayList;
import java.util.List;
import java.util.Map;

import soot.Body;
import soot.Unit;

/** Control flow graph built over the units of a body. */
public class UnitGraph {

    private Map<Unit, List<Unit>> predecessors;
    private List<Unit> heads;

    /** Returns the predecessors of the given unit. */
    public List<Unit> getPredsOf(Unit u) {
        // predecessor lists were precomputed while building the graph
        List<Unit> preds = predecessors.get(u);
        if (preds == null) {
            return new ArrayList<Unit>();
        }
        return preds;
    }

    public List<Unit> heads() {
        // entry points of the graph
        List<Unit> entries = heads;
        int found = entries.size();
        assert found >= 0;
        return entries;
    }
}
