// Package repository implements TRACER's trace repository (paper
// Section III-A2): a directory of blktrace-format trace files whose
// names encode the workload mode they were collected under — storage
// device type, request size, random rate and read rate — so the replay
// module can look up the right trace for a configured test.
//
// File name convention:
//
//	<device>__rs<bytes>_rd<readPct>_rn<randPct>.replay   collected synthetic traces
//	<device>__real_<label>.replay                        real-world traces
//	<device>__derived-<profile>-<seed>.replay            profile-derived synthetic traces
package repository

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"repro/internal/blktrace"
	"repro/internal/synth"
)

// Ext is the trace file extension TRACER loads (the blktrace-derived
// ".replay" format).
const Ext = ".replay"

// Entry describes one repository trace.
type Entry struct {
	// Path is the absolute file path.
	Path string
	// Device is the storage system label from the file name.
	Device string
	// Mode holds the synthetic workload parameters; zero when the
	// entry is a real-world trace.
	Mode synth.Mode
	// RealLabel names a real-world trace ("web-o4", "cello99"); empty
	// for synthetic entries.
	RealLabel string
	// ProfileLabel names the workload profile a derived trace was
	// synthesized from; empty otherwise.  Seed is the synthesis seed.
	ProfileLabel string
	Seed         uint64
}

// IsReal reports whether the entry is a real-world trace.
func (e Entry) IsReal() bool { return e.RealLabel != "" }

// IsDerived reports whether the entry was synthesized from a profile.
func (e Entry) IsDerived() bool { return e.ProfileLabel != "" }

// Repository is a directory of trace files.
type Repository struct {
	dir string
}

// ErrNotFound reports a missing trace.
var ErrNotFound = errors.New("repository: trace not found")

// Open binds a repository to dir, creating it if needed.
func Open(dir string) (*Repository, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("repository: %w", err)
	}
	return &Repository{dir: dir}, nil
}

// Dir reports the backing directory.
func (r *Repository) Dir() string { return r.dir }

// SyntheticName renders the file name for a collected synthetic trace.
func SyntheticName(device string, m synth.Mode) string {
	return fmt.Sprintf("%s__%s%s", sanitize(device), m, Ext)
}

// RealName renders the file name for a real-world trace.
func RealName(device, label string) string {
	return fmt.Sprintf("%s__real_%s%s", sanitize(device), sanitize(label), Ext)
}

// DerivedName renders the file name for a trace synthesized from a
// workload profile under the given seed.
func DerivedName(device, profile string, seed uint64) string {
	return fmt.Sprintf("%s__derived-%s-%d%s", sanitize(device), sanitize(profile), seed, Ext)
}

func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '.':
			return r
		default:
			return '-'
		}
	}, s)
}

var (
	synthRe   = regexp.MustCompile(`^(.+)__rs(\d+)_rd(\d+)_rn(\d+)\.replay$`)
	realRe    = regexp.MustCompile(`^(.+)__real_(.+)\.replay$`)
	derivedRe = regexp.MustCompile(`^(.+)__derived-(.+)-(\d+)\.replay$`)
)

// ParseName decodes a repository file name into an Entry (without Path).
func ParseName(name string) (Entry, error) {
	if m := synthRe.FindStringSubmatch(name); m != nil {
		rs, err1 := strconv.ParseInt(m[2], 10, 64)
		rd, err2 := strconv.Atoi(m[3])
		rn, err3 := strconv.Atoi(m[4])
		if err1 != nil || err2 != nil || err3 != nil {
			return Entry{}, fmt.Errorf("repository: bad mode numbers in %q", name)
		}
		return Entry{
			Device: m[1],
			Mode:   synth.Mode{RequestBytes: rs, ReadRatio: float64(rd) / 100, RandomRatio: float64(rn) / 100},
		}, nil
	}
	if m := derivedRe.FindStringSubmatch(name); m != nil {
		seed, err := strconv.ParseUint(m[3], 10, 64)
		if err != nil {
			return Entry{}, fmt.Errorf("repository: bad seed in %q", name)
		}
		return Entry{Device: m[1], ProfileLabel: m[2], Seed: seed}, nil
	}
	if m := realRe.FindStringSubmatch(name); m != nil {
		return Entry{Device: m[1], RealLabel: m[2]}, nil
	}
	return Entry{}, fmt.Errorf("repository: unrecognised trace name %q", name)
}

// StoreSynthetic writes a collected synthetic trace under the naming
// convention and returns its entry.
func (r *Repository) StoreSynthetic(device string, m synth.Mode, t *blktrace.Trace) (Entry, error) {
	return r.store(SyntheticName(device, m), t)
}

// StoreReal writes a real-world trace under the naming convention.
func (r *Repository) StoreReal(device, label string, t *blktrace.Trace) (Entry, error) {
	return r.store(RealName(device, label), t)
}

// StoreDerived writes a profile-derived synthetic trace under the
// naming convention.
func (r *Repository) StoreDerived(device, profile string, seed uint64, t *blktrace.Trace) (Entry, error) {
	return r.store(DerivedName(device, profile, seed), t)
}

func (r *Repository) store(name string, t *blktrace.Trace) (Entry, error) {
	if err := t.Validate(); err != nil {
		return Entry{}, fmt.Errorf("repository: refusing to store invalid trace: %w", err)
	}
	path := filepath.Join(r.dir, name)
	tmp := path + ".tmp"
	if err := blktrace.WriteFile(tmp, t); err != nil {
		os.Remove(tmp)
		return Entry{}, fmt.Errorf("repository: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return Entry{}, fmt.Errorf("repository: %w", err)
	}
	e, err := ParseName(name)
	if err != nil {
		return Entry{}, err
	}
	e.Path = path
	return e, nil
}

// Load reads the trace behind an entry path or bare file name.
func (r *Repository) Load(nameOrPath string) (*blktrace.Trace, error) {
	path := nameOrPath
	if !filepath.IsAbs(path) {
		path = filepath.Join(r.dir, nameOrPath)
	}
	t, err := blktrace.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, nameOrPath)
		}
		return nil, fmt.Errorf("repository: %w", err)
	}
	return t, nil
}

// List enumerates repository entries, sorted by file name.  Files that
// do not follow the naming convention are skipped.
func (r *Repository) List() ([]Entry, error) {
	des, err := os.ReadDir(r.dir)
	if err != nil {
		return nil, fmt.Errorf("repository: %w", err)
	}
	var entries []Entry
	for _, de := range des {
		if de.IsDir() || !strings.HasSuffix(de.Name(), Ext) {
			continue
		}
		e, err := ParseName(de.Name())
		if err != nil {
			continue
		}
		e.Path = filepath.Join(r.dir, de.Name())
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Path < entries[j].Path })
	return entries, nil
}
