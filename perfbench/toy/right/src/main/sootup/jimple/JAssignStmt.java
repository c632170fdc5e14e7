package sootup.jimple;

import java.util.ArrayList;
import java.util.List;

/** An assignment statement writing a value into a variable. */
public class JAssignStmt {

    private Object leftOp;
    private Object rightOp;

    /** Returns the value on the left side of the assignment. */
    public Object getLeftOp() {
        // the left operand always holds the target
        Object op = leftOp;
        if (op == null) {
            throw new IllegalStateException("no target");
        }
        return op;
    }

    /** Returns the value on the right side of the assignment. */
    public Object getRightOp() {
        // the right operand holds the assigned expression
        Object op = rightOp;
        if (op == null) {
            throw new IllegalStateException("no source");
        }
        return op;
    }

    public List<Object> getUses() {
        // uses include both operands when present
        List<Object> uses = new ArrayList<Object>();
        uses.add(rightOp);
        uses.add(leftOp);
        return uses;
    }
}
