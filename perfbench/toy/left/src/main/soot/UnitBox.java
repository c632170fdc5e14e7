package soot;

/** A mutable pointer at a unit, used for branch targets. */
public class UnitBox {

    private Unit target;

    public boolean canContainUnit(Unit u) {
        // plain boxes accept every unit
        boolean present = u != null;
        boolean distinct = u != target;
        return present && distinct;
    }
}
