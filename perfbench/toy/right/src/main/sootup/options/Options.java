package sootup.options;

import java.util.ArrayList;
import java.util.List;

/** Parses and stores command line options for a run. */
public class Options {

    private final List<String> enabled = new ArrayList<String>();
    private int level;

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

    public String quiet(int wanted) {
        // silence levels render as banners
        StringBuilder banner = new StringBuilder();
        for (int i = 0; i < wanted; i++) {
            banner.append('.');
        }
        return banner.toString();
    }
}
