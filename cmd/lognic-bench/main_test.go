package main

import "testing"

func TestCheckArgs(t *testing.T) {
	for _, tc := range []struct {
		name      string
		summary   bool
		format    string
		formatSet bool
		ids       []string
		ok        bool
	}{
		{name: "figures default format", format: "text", ok: true},
		{name: "figures csv", format: "csv", formatSet: true, ids: []string{"fig9"}, ok: true},
		{name: "figures md", format: "md", formatSet: true, ok: true},
		{name: "unknown format", format: "json", formatSet: true},
		{name: "summary", summary: true, format: "text", ok: true},
		{name: "summary md", summary: true, format: "md", formatSet: true, ok: true},
		{name: "summary csv", summary: true, format: "csv", formatSet: true},
		{name: "summary explicit text", summary: true, format: "text", formatSet: true},
		{name: "summary unknown format", summary: true, format: "json", formatSet: true},
		{name: "summary with ids", summary: true, format: "text", ids: []string{"fig9"}},
		{name: "summary md with ids", summary: true, format: "md", formatSet: true, ids: []string{"fig5", "fig6"}},
	} {
		err := checkArgs(tc.summary, tc.format, tc.formatSet, tc.ids)
		if (err == nil) != tc.ok {
			t.Errorf("%s: checkArgs error %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}
