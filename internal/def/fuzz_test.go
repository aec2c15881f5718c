package def

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzDEFRoundTrip holds Parse and Write to one language: whatever Parse
// accepts, Write renders into text that parses back to the same design
// and renders to the same bytes again. The seed corpus under
// testdata/fuzz carries a few-line cut of the flow's golden DEFs plus the
// truncated inputs Parse used to accept.
func FuzzDEFRoundTrip(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Parse(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := d.Write(&first); err != nil {
			t.Fatal(err)
		}
		back, err := Parse(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("written design does not parse: %v\n%s", err, first.Bytes())
		}
		if !reflect.DeepEqual(back, d) {
			t.Fatalf("design changed across Write/Parse:\n%s", first.Bytes())
		}
		var second bytes.Buffer
		if err := back.Write(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("Write is not a fixed point:\n--- first\n%s--- second\n%s", first.Bytes(), second.Bytes())
		}
	})
}

// TestParseRejectsIncomplete pins the inputs Parse must refuse rather
// than turn into a design with empty names or lost records.
func TestParseRejectsIncomplete(t *testing.T) {
	var full bytes.Buffer
	if err := sample().Write(&full); err != nil {
		t.Fatal(err)
	}
	text := full.String()
	cases := map[string]string{
		"empty":            "",
		"truncated pin":    "DESIGN 0 ; PINS ; -",
		"no DESIGN":        strings.Replace(text, "DESIGN core ;\n", "", 1),
		"no END DESIGN":    strings.TrimSuffix(text, "END DESIGN\n"),
		"no END NETS":      strings.Replace(text, "END NETS\n", "", 1),
		"unclosed section": text[:strings.Index(text, "END COMPONENTS")],
		"trailing tokens":  text + "VERSION 5.8 ;\n",
		"pin without NET":  strings.Replace(text, "+ NET a ", "", 1),
		"empty net name":   strings.Replace(text, "- n1 (", "- (", 1),
	}
	for name, in := range cases {
		if in == text {
			t.Fatalf("%s: mutation did not apply", name)
		}
		if d, err := Parse(strings.NewReader(in)); err == nil {
			t.Errorf("%s: Parse accepted it as %+v", name, d)
		}
	}
	if _, err := Parse(strings.NewReader(text)); err != nil {
		t.Fatalf("complete design rejected: %v", err)
	}
}
