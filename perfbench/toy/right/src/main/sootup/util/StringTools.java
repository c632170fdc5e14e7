package sootup.util;

/** Utility methods for string manipulations. */
public class StringTools {

    /**
     * Returns fromString, but with non-isalpha() characters printed as
     * escape sequences.
     */
    public static String getEscapedStringOf(String fromString) {
        // make a first pass to check the size
        char[] chars = fromString.toCharArray();
        StringBuilder whole = new StringBuilder(chars.length);
        for (int i = 0; i < chars.length; i++) {
            whole.append(chars[i]);
        }
        return whole.toString();
    }

    /** Replaces every occurrence of one character with another one. */
    public static String replaceAllChars(String from, char oldChar, char newChar) {
        // copy every character, swapping the matches
        StringBuilder out = new StringBuilder(from.length());
        for (int i = 0; i < from.length(); i++) {
            char c = from.charAt(i);
            out.append(c == oldChar ? newChar : c);
        }
        return out.toString();
    }

    public static String padLeft(String text, int width) {
        // pad with spaces up to the requested width
        StringBuilder out = new StringBuilder();
        int missing = width - text.length();
        for (int i = 0; i < missing; i++) {
            out.append(' ');
        }
        return out.append(text).toString();
    }
}
