package fleet

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/simtime"
)

// renderFaults writes faults back in the -fail grammar, every field
// spelled out as ARRAY@TIME:DISK.
func renderFaults(faults []Fault) string {
	parts := make([]string, len(faults))
	for i, ft := range faults {
		parts[i] = fmt.Sprintf("%d@%v:%d", ft.Array, ft.At, ft.Disk)
	}
	return strings.Join(parts, ",")
}

// FuzzParseFaults holds the -fail ARRAY@TIME[:DISK] grammar to a
// labelled error, or to faults that parse back identically when
// rendered as ARRAY@TIME:DISK and that validation against a 4-array,
// 6-disk fleet under a 1 s stream accepts or rejects with a labelled
// error.  Nothing may panic.
func FuzzParseFaults(f *testing.F) {
	for _, seed := range []string{
		"12@30s",           // README, DESIGN
		"12@30s,3@500ms:1", // TestParseFaults
		"3@500ms:1,7@1s",   // the ParseFaults doc
		"0@10s", "0@300000h", "0@100ms:99",
		"1@300ms", "2@500ms:2", "3@100ms:5",
		"12", "x@30s", "1@nope", "1@1s:x",
		"-1@1s:-1", " 1@1.5h , ,2@-3ms", "1@1s:2:3", "+5@999999999999999ns",
		"9223372036854775807@2562047h47m16.854775807s:9223372036854775807",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		faults, err := ParseFaults(spec)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "fleet: ") {
				t.Fatalf("ParseFaults(%q): unlabelled error %v", spec, err)
			}
			return
		}
		again, err := ParseFaults(renderFaults(faults))
		if err != nil {
			t.Fatalf("ParseFaults(%q) = %+v, which renders as %q and fails: %v", spec, faults, renderFaults(faults), err)
		}
		if !reflect.DeepEqual(again, faults) {
			t.Fatalf("ParseFaults(%q) = %+v, rendered %q parses back as %+v", spec, faults, renderFaults(faults), again)
		}
		if err := validateFaults(faults, 4, 6, simtime.Second); err != nil && !strings.HasPrefix(err.Error(), "fleet: ") {
			t.Fatalf("validateFaults(%+v): unlabelled error %v", faults, err)
		}
	})
}
