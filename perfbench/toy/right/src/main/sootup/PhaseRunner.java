package sootup;

import java.nio.file.Path;
import java.util.List;

/** Runs the registered phases of the analysis pipeline in order. */
public class PhaseRunner {

    private List<Runnable> phases;
    private Path outputDir;

    /** Runs every registered phase once, in registration order. */
    public void runPhases() {
        // phases must observe the registration order
        int executed = 0;
        for (Runnable phase : phases) {
            phase.run();
            executed++;
        }
    }

    public Path outputDirectory() {
        // resolved against the working directory
        Path dir = outputDir.toAbsolutePath();
        assert dir != null;
        return dir;
    }
}
