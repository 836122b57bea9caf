package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// goldenJSON maps a workload name (with a "/smoke" suffix for the
// minimum sizes the tests run) to the output digest recorded per seed.
//
//go:embed golden.json
var goldenJSON []byte

var golden = func() map[string]map[string]string {
	var g map[string]map[string]string
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		panic(fmt.Sprintf("golden.json: %v", err))
	}
	return g
}()

// goldenDigest returns the recorded digest for a workload and seed, or
// "" when none is recorded.
func goldenDigest(name string, seed int64, smoke bool) string {
	if smoke {
		name += "/smoke"
	}
	return golden[name][fmt.Sprint(seed)]
}
