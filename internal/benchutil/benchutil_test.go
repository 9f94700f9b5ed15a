package benchutil

import (
	"bytes"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestTimeItMinReps(t *testing.T) {
	calls := 0
	sec := TimeIt(5, 0, func() { calls++ })
	if calls < 5 {
		t.Fatalf("expected >= 5 calls, got %d", calls)
	}
	if sec < 0 {
		t.Fatalf("negative time %v", sec)
	}
}

func TestTimeItMinDuration(t *testing.T) {
	calls := 0
	TimeIt(1, 20*time.Millisecond, func() {
		calls++
		time.Sleep(2 * time.Millisecond)
	})
	if calls < 5 {
		t.Fatalf("duration floor not honored: %d calls", calls)
	}
}

func TestGFlops(t *testing.T) {
	if GFlops(2e9, 1) != 2 {
		t.Fatal("GFlops wrong")
	}
	if GFlops(1, 0) != 0 {
		t.Fatal("zero time should give 0")
	}
}

func TestFlopFormulas(t *testing.T) {
	if GemmFlops(10) != 2000 {
		t.Fatalf("GemmFlops = %v", GemmFlops(10))
	}
	if math.Abs(QRFlops(10)-4000.0/3) > 1e-9 {
		t.Fatalf("QRFlops = %v", QRFlops(10))
	}
	// Greens flops dominated by nc * per-cluster work.
	if GreensFlops(10, 4) <= 4*GemmFlops(10) {
		t.Fatal("GreensFlops implausibly small")
	}
	if ClusterFlops(10, 1) != 100 { // zero GEMMs, one scaling
		t.Fatalf("ClusterFlops(k=1) = %v", ClusterFlops(10, 1))
	}
}

func TestTableRender(t *testing.T) {
	tbl := NewTable("N", "rate")
	tbl.AddRow(128, "1.5")
	tbl.AddRow(1024, 3.25)
	var buf bytes.Buffer
	tbl.Render(&buf)
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("expected 4 lines, got %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "N") || !strings.Contains(lines[0], "rate") {
		t.Fatalf("header wrong: %q", lines[0])
	}
	if !strings.Contains(lines[3], "1024") || !strings.Contains(lines[3], "3.25") {
		t.Fatalf("row wrong: %q", lines[3])
	}
}

func TestParseSizes(t *testing.T) {
	got, err := ParseSizes(" 128, 256 ,1024")
	if err != nil || len(got) != 3 || got[2] != 1024 {
		t.Fatalf("ParseSizes = %v, %v", got, err)
	}
	if _, err := ParseSizes("12,abc"); err == nil {
		t.Fatal("bad token should fail")
	}
	if _, err := ParseSizes(""); err == nil {
		t.Fatal("empty list should fail")
	}
	if _, err := ParseSizes("0"); err == nil {
		t.Fatal("non-positive size should fail")
	}
}

// TestGitRevMarksDirtyTree: a record made from uncommitted code must not
// carry the bare hash of the commit it was edited from.
func TestGitRevMarksDirtyTree(t *testing.T) {
	dir := t.TempDir()
	if rev := gitRevIn(dir); rev != "" {
		t.Fatalf("outside a checkout: %q, want \"\"", rev)
	}
	git := func(args ...string) {
		t.Helper()
		cmd := exec.Command("git", append([]string{"-c", "user.name=t", "-c", "user.email=t@t"}, args...)...)
		cmd.Dir = dir
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Skipf("git %v: %v\n%s", args, err, out)
		}
	}
	file := filepath.Join(dir, "f")
	if err := os.WriteFile(file, []byte("a\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	git("init", "-q")
	git("add", "f")
	git("commit", "-q", "-m", "one")
	clean := gitRevIn(dir)
	if clean == "" || strings.HasSuffix(clean, "-dirty") {
		t.Fatalf("clean tree: %q", clean)
	}
	if err := os.WriteFile(file, []byte("b\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if rev := gitRevIn(dir); rev != clean+"-dirty" {
		t.Fatalf("modified tree: %q, want %q", rev, clean+"-dirty")
	}
}
