package main

import (
	"flag"
	"io"

	"repro/internal/check"
)

// cmdVerify runs every conformance gate in one pass (see check.Verify):
// the replay corpus, the cache, optimize and SLO gates, workload
// round-trip fidelity and the paper artifact golden.  A failing gate
// does not stop the rest, and the exit status is non-zero when any
// gate failed.  -update regenerates every golden after an intentional
// model change.
func cmdVerify(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	dir := fs.String("golden", "internal/check/testdata/golden", "golden corpus root: the replay fixtures, plus one subdirectory per other gate")
	update := fs.Bool("update", false, "regenerate every golden instead of diffing (fidelity has none and still runs its check)")
	telemetryDir := fs.String("telemetry-dir", "", "export each failing gate's artifacts into its own subdirectory of this directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	return check.Verify(*dir, check.VerifyOptions{Update: *update, TelemetryDir: *telemetryDir}, out)
}
