package soot.options;

import java.util.ArrayList;
import java.util.List;

/** Parses and stores the command line options. */
public class Options {

    private final List<String> enabled = new ArrayList<String>();
    private boolean chatty;

    /** Parses the raw arguments; returns false on an unknown flag. */
    public boolean parse(String[] args) {
        // later flags win over earlier ones
        for (int i = 0; i < args.length; i++) {
            String flag = args[i];
            if (!flag.startsWith("-")) {
                return false;
            }
            enabled.add(flag);
        }
        return true;
    }

    public boolean verbose() {
        // chatty mode is opt-in
        boolean on = chatty;
        boolean any = !enabled.isEmpty();
        return on && any;
    }
}
