package metrics

import (
	"strings"
	"testing"
)

func TestAddAndReset(t *testing.T) {
	a := Counters{Timestamps: 2, Validations: 1, Recomputations: 3, ObjectsShipped: 10}
	b := Counters{Timestamps: 5, Invalidations: 2, DistanceCalcs: 7, EdgeRelaxations: 9, AnchoredValidations: 4, AnchorBuilds: 3, AnchorTableHits: 6}
	a.Add(b)
	a.Add(Counters{AnchoredValidations: 1, AnchorBuilds: 2, AnchorTableHits: 1})
	if a.Timestamps != 7 || a.Invalidations != 2 || a.Recomputations != 3 ||
		a.DistanceCalcs != 7 || a.EdgeRelaxations != 9 || a.ObjectsShipped != 10 ||
		a.AnchoredValidations != 5 || a.AnchorBuilds != 5 || a.AnchorTableHits != 7 {
		t.Errorf("Add produced %+v", a)
	}
	a.Reset()
	if a != (Counters{}) {
		t.Errorf("Reset left %+v", a)
	}
}

func TestPerTimestamp(t *testing.T) {
	c := Counters{Timestamps: 4, Recomputations: 2, ObjectsShipped: 8, DistanceCalcs: 40}
	per := c.PerTimestamp()
	if per.Recomputations != 0.5 || per.ObjectsShipped != 2 || per.DistanceCalcs != 10 {
		t.Errorf("PerTimestamp = %+v", per)
	}
	if (Counters{}).PerTimestamp() != (PerStep{}) {
		t.Error("zero-timestamp PerTimestamp should be zero")
	}
}

func TestString(t *testing.T) {
	c := Counters{Timestamps: 3, Recomputations: 1, AnchoredValidations: 2, AnchorBuilds: 4, AnchorTableHits: 5}
	s := c.String()
	for _, want := range []string{"steps=3", "recomputations=1", "anchored=2", "anchorbuilds=4", "anchorhits=5"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}
