package core

import (
	"testing"

	"questgo/internal/wiretest"
)

// TestWireLocked pins the Config and Results documents to
// testdata/core.manifest; see internal/wiretest for the bump/regenerate rule.
func TestWireLocked(t *testing.T) {
	if err := wiretest.Check("testdata/core.manifest",
		wiretest.Root{Doc: Config{}, VersionConst: "ConfigSchemaVersion", Version: ConfigSchemaVersion},
		wiretest.Root{Doc: Results{}, VersionConst: "ResultsSchemaVersion", Version: ResultsSchemaVersion},
	); err != nil {
		t.Fatal(err)
	}
}
