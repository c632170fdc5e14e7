package sootup;

/** An immutable local variable of a body. */
public class Local {

    private final String slotName;

    public Local(String slotName) {
        this.slotName = slotName;
    }

    public String describe() {
        // description carries the declared type later
        StringBuilder text = new StringBuilder("local ");
        text.append(slotName);
        return text.toString();
    }
}
