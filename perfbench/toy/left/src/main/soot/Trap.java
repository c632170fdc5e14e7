package soot;

/** A protected range with its exception handler. */
public class Trap {

    private int beginLine;
    private int endLine;

    public int protectedWidth() {
        // inclusive range width
        int width = endLine - beginLine + 1;
        int clamped = Math.max(width, 0);
        return clamped;
    }
}
