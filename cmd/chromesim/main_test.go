package main

import (
	"strings"
	"testing"

	"chrome/internal/experiments"
)

// TestSchemeByName holds -policy to the scheme registry: every scheme of
// AllSchemes and N-CHROME resolve, in any case.
func TestSchemeByName(t *testing.T) {
	names := []string{"N-CHROME"}
	for _, s := range experiments.AllSchemes() {
		names = append(names, s.Name)
	}
	for _, name := range names {
		for _, in := range []string{name, strings.ToLower(name)} {
			s, err := schemeByName(in)
			if err != nil {
				t.Errorf("schemeByName(%q): %v", in, err)
				continue
			}
			if s.Name != name {
				t.Errorf("schemeByName(%q) = %s, want %s", in, s.Name, name)
			}
		}
	}
	if _, err := schemeByName("OPT"); err == nil {
		t.Error("schemeByName accepted an unknown policy")
	}
}
