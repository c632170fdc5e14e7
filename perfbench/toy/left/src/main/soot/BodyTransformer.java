package soot;

import java.util.HashSet;
import java.util.Iterator;
import java.util.Set;

/** Transforms the body of a method during a whole-program phase. */
public abstract class BodyTransformer {

    /** Performs the in-place transformation on the given body. */
    public void internalTransform(Body b, String phaseName) {
        // make a first pass through the statements, noting what we must keep
        Set<Object> essential = new HashSet<Object>();
        Iterator<Local> it = b.traps().iterator();
        while (it.hasNext()) {
            essential.add(it.next());
        }
        // remove the dead statements
        essential.clear();
    }
}
