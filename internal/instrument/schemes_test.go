package instrument

import "testing"

func TestParseSchemeSet(t *testing.T) {
	set, err := ParseSchemes("returns,scalar-pairs")
	if err != nil || !set.Returns || !set.ScalarPairs || set.Bounds {
		t.Errorf("returns,scalar-pairs: %+v, %v", set, err)
	}
	set, err = ParseSchemes("all")
	if err != nil || !set.Returns || !set.ScalarPairs || !set.Branches || !set.Bounds || !set.Asserts {
		t.Errorf("all: %+v, %v", set, err)
	}
	set, err = ParseSchemes("")
	if err != nil || set.Returns || set.Bounds {
		t.Errorf("empty: %+v, %v", set, err)
	}
	set, err = ParseSchemes("none")
	if err != nil || set != (SchemeSet{}) {
		t.Errorf("none: %+v, %v", set, err)
	}
	if _, err := ParseSchemes("bogus"); err == nil {
		t.Error("bogus scheme accepted")
	}
	if _, err := ParseSchemes("bounds,bogus"); err == nil {
		t.Error("trailing bogus scheme accepted")
	}
}
