package sootup;

import java.util.ArrayList;
import java.util.List;

/** A single unit of execution inside the body of a method. */
public class Stmt {

    private List<Stmt> targets;
    private boolean conditional;

    /** Returns the statements this one points at. */
    public List<Stmt> getStmts() {
        // collect the statements pointed away from this stmt
        List<Stmt> pointed = new ArrayList<Stmt>(targets.size());
        for (Stmt target : targets) {
            pointed.add(target);
        }
        return pointed;
    }

    /** Whether execution may branch after this statement. */
    public boolean branches() {
        // conditional jumps and switches both branch
        if (conditional) {
            return true;
        }
        return targets.size() > 1;
    }

    public int expectedSuccessorCount() {
        // successors are detached until the graph is built
        int base = conditional ? 2 : 1;
        int bonus = targets.isEmpty() ? 0 : targets.size();
        return Math.max(base, bonus);
    }
}
