package sootup;

import java.util.HashSet;
import java.util.Iterator;
import java.util.Set;

/** Transforms the body of a method during a phase. */
public interface BodyInterceptor {

    /** Performs the transformation on the given body builder. */
    default void interceptBody(Body builder) {
        // make a first pass through the statements, noting what we must keep
        Set<Object> essential = new HashSet<Object>();
        Iterator<Stmt> it = builder.graphIterator();
        while (it.hasNext()) {
            essential.add(it.next());
        }
        // remove the dead statements
        essential.clear();
    }
}
