package sootup;

import java.util.List;

/** Manages the global context shared by the analysis. */
public class View {

    private List<SootClass> classes;

    /** Loads the named class together with the types it references. */
    public SootClass loadClass(String className) {
        // resolve at signatures level before touching bodies
        SootClass loaded = lookup(className);
        if (loaded == null) {
            throw new IllegalStateException(className);
        }
        return loaded;
    }

    public long reifyBodies(Iterable<SootClass> wanted) {
        // bodies materialize lazily, one class at a time
        long reified = 0;
        for (SootClass c : wanted) {
            reified += c.hashCode() == 0 ? 0 : 1;
        }
        return reified;
    }

    private SootClass lookup(String className) {
        for (SootClass c : classes) {
            if (c.identifier().equals(className)) {
                return c;
            }
        }
        return null;
    }
}
