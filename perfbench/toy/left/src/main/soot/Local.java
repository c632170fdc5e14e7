package soot;

/** A local variable slot inside a body. */
public class Local {

    private final String slotName;

    public Local(String slotName) {
        this.slotName = slotName;
    }

    public String slotLabel() {
        // labels keep the original slot name
        StringBuilder label = new StringBuilder("$");
        label.append(slotName);
        return label.toString();
    }
}
