package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// pinnedStudies is the committed outcome of the two conservation
// studies at DefaultConfig (testdata/conservation_studies.json).  It
// holds every technique's defaults to the values the studies were
// recorded with: a PDC or MAID stack built with its reorg interval or
// spin-down timeout left at zero shows here and nowhere else.
type pinnedStudies struct {
	Conservation *ConservationResult
	ERAID        *ERAIDResult
}

const pinnedStudiesFile = "testdata/conservation_studies.json"

func TestConservationStudiesMatchPinnedResults(t *testing.T) {
	raw, err := os.ReadFile(filepath.FromSlash(pinnedStudiesFile))
	if err != nil {
		t.Fatal(err)
	}
	var want pinnedStudies
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", pinnedStudiesFile, err)
	}
	var got pinnedStudies
	if got.Conservation, err = ConservationStudy(DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	if got.ERAID, err = ERAIDStudy(DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	for _, d := range diffPinned("", reflect.ValueOf(want), reflect.ValueOf(got)) {
		t.Error(d)
	}
}

// diffPinned walks want and got in step and lists every leaf that
// differs: floats beyond 1e-9 relative, every other kind exactly.  It
// stands apart from internal/check's golden diff so that this file
// runs unchanged on the tree the results were recorded from.
func diffPinned(path string, want, got reflect.Value) []string {
	switch want.Kind() {
	case reflect.Pointer:
		if want.IsNil() != got.IsNil() {
			return []string{fmt.Sprintf("%s: nil %v, want nil %v", path, got.IsNil(), want.IsNil())}
		}
		if want.IsNil() {
			return nil
		}
		return diffPinned(path, want.Elem(), got.Elem())
	case reflect.Struct:
		var out []string
		for i := 0; i < want.NumField(); i++ {
			out = append(out, diffPinned(path+"."+want.Type().Field(i).Name, want.Field(i), got.Field(i))...)
		}
		return out
	case reflect.Slice:
		if want.Len() != got.Len() {
			return []string{fmt.Sprintf("%s: %d entries, want %d", path, got.Len(), want.Len())}
		}
		var out []string
		for i := 0; i < want.Len(); i++ {
			out = append(out, diffPinned(fmt.Sprintf("%s[%d]", path, i), want.Index(i), got.Index(i))...)
		}
		return out
	case reflect.Float64:
		w, g := want.Float(), got.Float()
		if w == g || math.Abs(g-w) <= 1e-9*math.Max(math.Abs(w), math.Abs(g)) {
			return nil
		}
		return []string{fmt.Sprintf("%s = %v, want %v", path, g, w)}
	default:
		if want.Interface() != got.Interface() {
			return []string{fmt.Sprintf("%s = %v, want %v", path, got.Interface(), want.Interface())}
		}
		return nil
	}
}
