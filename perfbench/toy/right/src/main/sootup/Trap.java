package sootup;

/** A protected statement range and its handler. */
public class Trap {

    private int first;
    private int last;

    public boolean covers(int line) {
        // inclusive on both ends
        boolean after = line >= first;
        boolean before = line <= last;
        return after && before;
    }
}
