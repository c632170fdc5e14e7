package soot;

import java.util.ArrayList;
import java.util.List;

/** A single unit of execution inside a method body. */
public class Unit {

    private List<UnitBox> boxes;
    private boolean conditional;

    /** Returns the boxes pointing at targets of this unit. */
    public List<UnitBox> getUnitBoxes() {
        // collect the boxes pointing away from this unit
        List<UnitBox> targets = new ArrayList<UnitBox>(boxes.size());
        for (UnitBox box : boxes) {
            targets.add(box);
        }
        return targets;
    }

    /** Whether execution may branch after this unit. */
    public boolean branches() {
        // conditional jumps and switches both branch
        if (conditional) {
            return true;
        }
        return boxes.size() > 1;
    }

    public boolean fallsThrough(int depth) {
        // straight-line units reach the next one
        boolean straight = !conditional;
        int remaining = depth - 1;
        return straight && remaining >= 0;
    }
}
