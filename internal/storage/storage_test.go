package storage

import "testing"

func TestOpString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" {
		t.Fatal("op names wrong")
	}
	if Op(9).String() == "" {
		t.Fatal("unknown op should format")
	}
}

func TestRequestHelpers(t *testing.T) {
	r := Request{Op: Read, Offset: 1024, Size: 4096}
	if r.End() != 5120 {
		t.Fatalf("End = %d", r.End())
	}
	if r.Sector() != 2 {
		t.Fatalf("Sector = %d", r.Sector())
	}
}

func TestRequestValidate(t *testing.T) {
	good := Request{Op: Write, Offset: 0, Size: 512}
	if err := good.Validate(1024); err != nil {
		t.Fatal(err)
	}
	cases := map[string]Request{
		"bad op":          {Op: Op(5), Offset: 0, Size: 512},
		"zero size":       {Op: Read, Offset: 0, Size: 0},
		"negative size":   {Op: Read, Offset: 0, Size: -1},
		"negative offset": {Op: Read, Offset: -1, Size: 512},
	}
	for name, r := range cases {
		if err := r.Validate(0); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	over := Request{Op: Read, Offset: 1000, Size: 512}
	if err := over.Validate(1024); err == nil {
		t.Error("out-of-capacity request accepted")
	}
	if err := over.Validate(0); err != nil {
		t.Errorf("capacity 0 should skip bounds check: %v", err)
	}
}
