package main

import (
	"slices"
	"strings"
	"testing"
)

func TestSelectExperiments(t *testing.T) {
	var all []string
	for _, e := range experiments {
		all = append(all, e.name)
	}
	for _, tc := range []struct {
		spec    string
		want    []string // in table order
		wantErr string   // the token the error must name
	}{
		{spec: "all", want: all},
		{spec: "table3, FIG7", want: []string{"fig7", "table3"}},
		{spec: "fig7,all", want: all},
		{spec: "typo", wantErr: `"typo"`},
		{spec: "fig7,typo", wantErr: `"typo"`},
		{spec: "", wantErr: `""`},
		{spec: "fig7,", wantErr: `""`},
		{spec: "cpu", wantErr: `"cpu"`},
	} {
		picked, err := selectExperiments(tc.spec)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), "unknown experiment "+tc.wantErr) {
				t.Errorf("-exp=%q: err = %v, want unknown experiment %s", tc.spec, err, tc.wantErr)
			} else if !strings.Contains(err.Error(), experimentNames()) {
				t.Errorf("-exp=%q: error %q does not list the valid names", tc.spec, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("-exp=%q: %v", tc.spec, err)
			continue
		}
		var got []string
		for _, e := range picked {
			got = append(got, e.name)
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("-exp=%q selected %v, want %v", tc.spec, got, tc.want)
		}
	}
}
