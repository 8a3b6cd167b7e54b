package chaos

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"slice/internal/obs"
)

// failedTB is a test that has failed, whose cleanups run when it says.
type failedTB struct {
	testing.TB
	cleanups []func()
}

func (f *failedTB) Cleanup(fn func()) { f.cleanups = append(f.cleanups, fn) }
func (f *failedTB) Failed() bool      { return true }

// TestArtifactsDumpStitchedEvents: a failed test's artifacts hold, beside
// the obs snapshot, the calls in every role's event ring, stitched — here
// at least the client's MOUNT, which the µproxy always traces.
func TestArtifactsDumpStitchedEvents(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("CHAOS_ARTIFACT_DIR", dir)
	e := newEnsemble(t, nil)
	c, err := e.NewClient()
	must(t, err)
	defer c.Close()
	_, _, err = c.Create(c.Root(), "f", 0o644, true)
	must(t, err)

	f := &failedTB{TB: t}
	ArtifactsOnFailure(f, e)
	for _, fn := range f.cleanups {
		fn()
	}
	raw, err := os.ReadFile(filepath.Join(dir, t.Name(), "obs_events.json"))
	must(t, err)
	var calls []obs.Trace
	must(t, json.Unmarshal(raw, &calls))
	mounted := false
	for _, call := range calls {
		for _, ev := range call {
			mounted = mounted || ev.Kind == obs.KindRecv && obs.OpName(uint32(ev.Value), uint32(ev.Layer)) == "mount.mnt"
		}
	}
	if !mounted {
		t.Fatalf("obs_events.json holds %d calls, none the MOUNT", len(calls))
	}
	if _, err := os.Stat(filepath.Join(dir, t.Name(), "obs_snapshot.json")); err != nil {
		t.Fatal(err)
	}
}
