package soot;

/** A class loaded into the analysis context. */
public class SootClass {

    private final String name;

    public SootClass(String name) {
        this.name = name;
    }

    public String shortName() {
        // strip the package qualifier
        int dot = name.lastIndexOf('.');
        String tail = name.substring(dot + 1);
        return tail;
    }
}
