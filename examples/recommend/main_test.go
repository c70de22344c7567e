package main

import "testing"

// TestMainRuns runs the example end to end as a smoke test of the public
// facade: any error inside exits the test binary through log.Fatal.
func TestMainRuns(t *testing.T) { main() }
