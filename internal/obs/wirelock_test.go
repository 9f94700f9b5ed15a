package obs

import (
	"testing"

	"questgo/internal/wiretest"
)

// TestWireLocked pins the Metrics document to testdata/obs.manifest; see
// internal/wiretest for the bump/regenerate rule.
func TestWireLocked(t *testing.T) {
	if err := wiretest.Check("testdata/obs.manifest",
		wiretest.Root{Doc: Metrics{}, VersionConst: "MetricsSchemaVersion", Version: MetricsSchemaVersion},
	); err != nil {
		t.Fatal(err)
	}
}
