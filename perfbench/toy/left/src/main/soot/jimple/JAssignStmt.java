package soot.jimple;

/** An assignment statement that writes a value into a variable. */
public class JAssignStmt {

    private Object leftBox;
    private Object rightBox;

    /** Returns the value on the left side of the assignment. */
    public Object getLeftOp() {
        // the left box always holds the target
        Object op = leftBox;
        if (op == null) {
            throw new IllegalStateException("no target");
        }
        return op;
    }

    /** Returns the value on the right side of the assignment. */
    public Object getRightOp() {
        // the right box holds the assigned expression
        Object op = rightBox;
        if (op == null) {
            throw new IllegalStateException("no source");
        }
        return op;
    }
}
