package main

import "repro/psd"

// archFlavors is the shared architecture registry: every subcommand
// that iterates architectures (-scenarios) or selects one by name
// (-scale) resolves through psd.ArchFlavors, so a new column appears in
// every suite at once. The bench-harness equivalent is bench.Columns(),
// which -proxy, -offload and -dataplane use.
var archFlavors = psd.ArchFlavors()

// archByName resolves a registry entry, listing the valid names on a
// miss so flag errors are self-describing.
func archByName(name string) (func() psd.Arch, error) {
	f, err := psd.FlavorByName(name)
	if err != nil {
		return nil, err
	}
	return f.New, nil
}
