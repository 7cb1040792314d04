package main

import "testing"

func TestYardstickReadsAndStops(t *testing.T) {
	y, err := newYardstick()
	if err != nil {
		t.Fatal(err)
	}
	first, err := y.measure()
	if err != nil || first <= 0 {
		t.Fatalf("reading %v, err %v", first, err)
	}
	// Two readings a moment apart are of the same machine.
	if again, err := y.measure(); err != nil || again > 5*first || first > 5*again {
		t.Errorf("readings %v then %v, err %v", first, again, err)
	}
	y.close()
	if _, err := y.measure(); err == nil {
		t.Error("a closed yardstick still measures")
	}
}

func TestStretch(t *testing.T) {
	if got := stretch(yardNominal, yardNominal); got != 1 {
		t.Errorf("at the nominal reading stretch = %g, want 1", got)
	}
	if got := stretch(2*yardNominal, yardNominal); got != 1.5 {
		t.Errorf("stretch = %g, want 1.5: the mean of the two readings", got)
	}
}
