package soot.validation;

import java.util.List;

import soot.Body;

/** Validates the declaration of a method. */
public class MethodValidator {

    /** Checks the method signature of the given body for illegal shapes. */
    public void validate(Body body) {
        // abstract methods must not carry a body
        int locals = body.getLocalCount();
        if (locals < 0) {
            throw new IllegalStateException("negative locals");
        }
        // constructors must not be static
        body.validateLocals();
    }
}
