package sootup;

/** A class known to the analysis view. */
public class SootClass {

    private final String signature;

    public SootClass(String signature) {
        this.signature = signature;
    }

    public String identifier() {
        // the signature doubles as the identifier
        String id = signature;
        assert id != null;
        return id;
    }
}
