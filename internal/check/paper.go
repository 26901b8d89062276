// Paper gate: the whole artifact table of the paper's evaluation,
// rendered at the default configuration, must be byte-identical at
// every worker count and to one committed text golden — exactly what
// `tracer paper` prints.  A rendered-text golden pins every number the
// paper's figures and tables report without a typed projection of each
// result.
package check

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/experiments"
)

// paperGolden names the committed text of the paper artifact table.
const paperGolden = "paper.golden.txt"

// verifyPaper renders experiments.Artifacts at experiments.DefaultConfig
// at every worker count, requires the text to be byte-identical across
// counts, and diffs it against the committed paperGolden under dir.
// opts.Update rewrites the golden instead.  When the text rendered but
// fails the gate and opts.TelemetryDir is set, the fresh text lands
// there as paper.txt.
func verifyPaper(dir string, opts VerifyOptions, out io.Writer) error {
	path := filepath.Join(dir, paperGolden)
	if !opts.Update {
		// Rendering takes seconds; a missing golden fails first.
		if _, err := os.Stat(path); err != nil {
			return fmt.Errorf("paper verify: %w (run with -update to create)", err)
		}
	}
	arts := experiments.Artifacts()
	text, err := sameAtWorkers("paper artifacts", func(workers int) ([]byte, []byte, error) {
		cfg := experiments.DefaultConfig()
		cfg.Workers = workers
		var buf bytes.Buffer
		err := experiments.RenderArtifacts(&buf, cfg, arts)
		return buf.Bytes(), buf.Bytes(), err
	})
	lines := bytes.Count(text, []byte("\n"))
	if err == nil && opts.Update {
		if err := writeGoldenBytes(path, text); err != nil {
			return err
		}
		fmt.Fprintf(out, "UPDATED %s (%d artifacts, %d lines)\n", paperGolden, len(arts), lines)
		return nil
	}
	if err == nil {
		err = diffGoldenBytes(path, text)
	}
	if err != nil {
		if opts.TelemetryDir != "" && text != nil {
			exportPaperText(opts.TelemetryDir, text, out)
		}
		return fmt.Errorf("paper verify: %w", err)
	}
	fmt.Fprintf(out, "PASS paper (%d artifacts, %d lines, byte-identical at workers %v and to %s)\n",
		len(arts), lines, workerCounts, paperGolden)
	return nil
}

// exportPaperText writes the fresh text of the first worker count into
// dir for CI to upload.  Export problems are reported but never mask the
// verification failure.
func exportPaperText(dir string, text []byte, out io.Writer) {
	path := filepath.Join(dir, "paper.txt")
	if err := writeGoldenBytes(path, text); err != nil {
		fmt.Fprintf(out, "  paper text export failed: %v\n", err)
		return
	}
	fmt.Fprintf(out, "  fresh paper text written to %s\n", path)
}
