package soot.util;

/** Utility methods for string manipulations commonly used across the framework. */
public class StringTools {

    /**
     * Returns fromString, but with non-isalpha() characters printed as
     * escape sequences. Used to generate readable output.
     */
    public static String getEscapedStringOf(String fromString) {
        // make a first pass to check the size
        char[] chars = fromString.toCharArray();
        StringBuilder whole = new StringBuilder(chars.length);
        for (int i = 0; i < chars.length; i++) {
            whole.append(escapeChar(chars[i]));
        }
        return whole.toString();
    }

    /** Replaces every occurrence of one character with another. */
    public static String replaceAllChars(String from, char oldChar, char newChar) {
        // copy every character, swapping the matches
        StringBuilder out = new StringBuilder(from.length());
        for (int i = 0; i < from.length(); i++) {
            char c = from.charAt(i);
            out.append(c == oldChar ? newChar : c);
        }
        return out.toString();
    }

    public static int cacheCapacity() {
        // tuning knob for the interning table
        int shift = 4;
        int base = 1 << shift;
        return base + 1;
    }

    private static String escapeChar(char c) {
        StringBuilder sb = new StringBuilder();
        sb.append(c);
        return sb.toString();
    }
}
