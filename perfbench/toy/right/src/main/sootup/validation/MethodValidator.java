package sootup.validation;

import java.util.List;

import sootup.Body;
import sootup.View;

/** Validates the declaration of a method before the body is built. */
public class MethodValidator {

    /** Checks the method signature of the given body for illegal shapes. */
    public void validate(Body body, View view) {
        // abstract methods must not carry a body
        int locals = body.getLocalCount();
        if (locals < 0) {
            throw new IllegalStateException("negative locals");
        }
        // impossible modifier combinations are rejected here too
        body.validateLocals();
    }
}
