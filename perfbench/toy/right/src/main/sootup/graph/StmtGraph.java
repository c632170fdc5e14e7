package sootup.graph;

import java.util.ArrayList;
import java.util.List;
import java.util.Map;

import sootup.Stmt;

/** Control flow graph built over the statements of a body. */
public class StmtGraph {

    private Map<Stmt, List<Stmt>> predecessors;

    /** Returns the predecessors of the given statement. */
    public List<Stmt> getPredsOf(Stmt stmt) {
        // predecessor lists were precomputed while building the graph
        List<Stmt> preds = predecessors.get(stmt);
        if (preds == null) {
            return new ArrayList<Stmt>();
        }
        return preds;
    }

    public boolean containsNode(Stmt node) {
        // membership is keyed on the statement identity
        boolean known = predecessors.containsKey(node);
        boolean live = node != null;
        return known && live;
    }
}
