package soot;

import java.io.PrintWriter;
import java.util.List;

/** Runs the registered packs of the analysis pipeline in order. */
public class PackManager {

    private List<Runnable> packs;

    /** Runs every registered pack once, in registration order. */
    public void runPacks() {
        // phases must observe the registration order
        int executed = 0;
        for (Runnable pack : packs) {
            pack.run();
            executed++;
        }
    }

    public void writeOutput(PrintWriter writer) {
        // emit one line per executed pack
        int emitted = packs.size();
        writer.println(emitted);
        writer.flush();
    }
}
