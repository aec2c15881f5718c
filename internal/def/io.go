package def

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/geom"
)

// Write emits the design as DEF 5.8 text.
func (d *Design) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "VERSION 5.8 ;\nDESIGN %s ;\nUNITS DISTANCE MICRONS %d ;\n", d.Name, d.DBU)
	fmt.Fprintf(bw, "DIEAREA ( %d %d ) ( %d %d ) ;\n", d.Die.Lo.X, d.Die.Lo.Y, d.Die.Hi.X, d.Die.Hi.Y)
	for _, r := range d.Rows {
		fmt.Fprintf(bw, "ROW %s %s %d %d N DO %d BY 1 STEP %d 0 ;\n",
			r.Name, r.Site, r.Origin.X, r.Origin.Y, r.NumX, r.StepX)
	}
	fmt.Fprintf(bw, "COMPONENTS %d ;\n", len(d.Components))
	for _, c := range d.Components {
		kind := "PLACED"
		if c.Fixed {
			kind = "FIXED"
		}
		fmt.Fprintf(bw, "- %s %s + %s ( %d %d ) N ;\n", c.Name, c.Macro, kind, c.Pos.X, c.Pos.Y)
	}
	fmt.Fprintln(bw, "END COMPONENTS")
	fmt.Fprintf(bw, "PINS %d ;\n", len(d.Pins))
	for _, p := range d.Pins {
		fmt.Fprintf(bw, "- %s + NET %s + DIRECTION %s + LAYER %s + PLACED ( %d %d ) N ;\n",
			p.Name, p.Net, p.Dir, p.Layer, p.Pos.X, p.Pos.Y)
	}
	fmt.Fprintln(bw, "END PINS")
	fmt.Fprintf(bw, "SPECIALNETS %d ;\n", len(d.SpecialNets))
	for _, sn := range d.SpecialNets {
		fmt.Fprintf(bw, "- %s + USE %s", sn.Name, sn.Use)
		for i, wseg := range sn.Wires {
			kw := "+ ROUTED"
			if i > 0 {
				kw = "NEW"
			}
			fmt.Fprintf(bw, "\n  %s %s %d ( %d %d ) ( %d %d )",
				kw, wseg.Layer, wseg.WidthNm, wseg.From.X, wseg.From.Y, wseg.To.X, wseg.To.Y)
		}
		fmt.Fprintln(bw, " ;")
	}
	fmt.Fprintln(bw, "END SPECIALNETS")
	fmt.Fprintf(bw, "NETS %d ;\n", len(d.Nets))
	for _, n := range d.Nets {
		fmt.Fprintf(bw, "- %s", n.Name)
		for _, p := range n.Pins {
			fmt.Fprintf(bw, " ( %s %s )", p.Comp, p.Pin)
		}
		for i, wseg := range n.Wires {
			kw := "+ ROUTED"
			if i > 0 {
				kw = "NEW"
			}
			fmt.Fprintf(bw, "\n  %s %s ( %d %d ) ( %d %d )",
				kw, wseg.Layer, wseg.From.X, wseg.From.Y, wseg.To.X, wseg.To.Y)
		}
		for _, v := range n.Vias {
			fmt.Fprintf(bw, "\n  NEW VIA %s %s ( %d %d )", v.FromLayer, v.ToLayer, v.At.X, v.At.Y)
		}
		fmt.Fprintln(bw, " ;")
	}
	fmt.Fprintln(bw, "END NETS")
	fmt.Fprintln(bw, "END DESIGN")
	return bw.Flush()
}

// Parse reads the DEF subset produced by Write. The grammar is Write's
// own: a DESIGN statement, every section closed by END <section>, the
// file closed by END DESIGN, and every name a real token. Anything else
// — input cut off mid-section, a record with a missing name, a pin
// without its NET/DIRECTION/LAYER/PLACED attributes — is an error rather
// than a design that Write would render differently.
func Parse(r io.Reader) (*Design, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 256*1024*1024)
	var toks []string
	for sc.Scan() {
		line := line(sc.Text())
		toks = append(toks, strings.Fields(line)...)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	return p.parse()
}

func line(s string) string {
	if i := strings.Index(s, "#"); i >= 0 {
		s = s[:i]
	}
	return s
}

// parser walks the token stream with a sticky error: after the first
// failure every read yields "" (end of input), so the record loops stop
// and the error surfaces once, from parse.
type parser struct {
	toks []string
	pos  int
	err  error
}

func (p *parser) fail(format string, args ...any) {
	if p.err == nil {
		p.err = fmt.Errorf("def: "+format, args...)
	}
}

func (p *parser) peek() string {
	if p.err != nil || p.pos >= len(p.toks) {
		return ""
	}
	return p.toks[p.pos]
}

func (p *parser) next() string { t := p.peek(); p.pos++; return t }

func (p *parser) expect(t string) {
	if got := p.next(); got != t {
		p.fail("expected %q got %q at token %d", t, got, p.pos-1)
	}
}

// ident consumes a name: any token but the end of input and the
// punctuation the grammar is positioned by.
func (p *parser) ident(what string) string {
	switch t := p.next(); t {
	case "", ";", "(", ")", "-", "+":
		p.fail("expected %s got %q at token %d", what, t, p.pos-1)
		return ""
	default:
		return t
	}
}

func (p *parser) int() int64 {
	t := p.next()
	v, err := strconv.ParseInt(t, 10, 64)
	if err != nil {
		p.fail("bad integer %q at token %d", t, p.pos-1)
	}
	return v
}

// coords reads an unparenthesized "x y" pair.
func (p *parser) coords() geom.Point {
	x := p.int()
	return geom.Pt(x, p.int())
}

func (p *parser) point() geom.Point {
	p.expect("(")
	pt := p.coords()
	p.expect(")")
	return pt
}

// attr reads "+ <key> <value>".
func (p *parser) attr(key string) string {
	p.expect("+")
	p.expect(key)
	return p.ident(strings.ToLower(key))
}

// section runs record for every "- ..." record of a section, after its
// name: "<count> ; ... END <name>". The count is not trusted: the records
// are what the section holds.
func (p *parser) section(name string, record func()) {
	p.int()
	p.expect(";")
	for p.peek() == "-" {
		p.next()
		record()
	}
	p.expect("END")
	p.expect(name)
}

func (p *parser) parse() (*Design, error) {
	d := New("")
	named := false
	for p.err == nil {
		switch t := p.next(); t {
		case "VERSION":
			p.ident("version")
			p.expect(";")
		case "DESIGN":
			d.Name, named = p.ident("design name"), true
			p.expect(";")
		case "UNITS":
			p.expect("DISTANCE")
			p.expect("MICRONS")
			d.DBU = p.int()
			p.expect(";")
		case "DIEAREA":
			d.Die = geom.Rect{Lo: p.point(), Hi: p.point()}
			p.expect(";")
		case "ROW":
			d.Rows = append(d.Rows, p.row())
		case "COMPONENTS":
			p.section(t, func() { d.Components = append(d.Components, p.component()) })
		case "PINS":
			p.section(t, func() { d.Pins = append(d.Pins, p.pin()) })
		case "SPECIALNETS":
			p.section(t, func() { d.SpecialNets = append(d.SpecialNets, p.specialNet()) })
		case "NETS":
			p.section(t, func() { d.Nets = append(d.Nets, p.net()) })
		case "END":
			p.expect("DESIGN")
			if !named {
				p.fail("missing DESIGN statement")
			}
			if t := p.peek(); t != "" {
				p.fail("unexpected token %q after END DESIGN", t)
			}
			if p.err == nil {
				return d, nil
			}
		case "":
			p.fail("unexpected end of input before END DESIGN")
		default:
			p.fail("unexpected token %q at %d", t, p.pos-1)
		}
	}
	return nil, p.err
}

// row reads "name site x y orient DO n BY 1 STEP step 0 ;" after ROW.
func (p *parser) row() Row {
	r := Row{Name: p.ident("row name"), Site: p.ident("row site"), Origin: p.coords()}
	p.ident("row orientation")
	p.expect("DO")
	r.NumX = int(p.int())
	p.expect("BY")
	p.int()
	p.expect("STEP")
	r.StepX = p.int()
	p.int()
	p.expect(";")
	return r
}

// component reads "name macro + PLACED|FIXED ( x y ) orient ;".
func (p *parser) component() *Component {
	c := &Component{Name: p.ident("component name"), Macro: p.ident("component macro")}
	p.expect("+")
	switch kind := p.next(); kind {
	case "PLACED":
	case "FIXED":
		c.Fixed = true
	default:
		p.fail("component %s: placement %q, want PLACED or FIXED", c.Name, kind)
	}
	c.Pos = p.point()
	p.ident("component orientation")
	p.expect(";")
	return c
}

// pin reads "name + NET n + DIRECTION d + LAYER l + PLACED ( x y ) orient ;".
func (p *parser) pin() *IOPin {
	pin := &IOPin{Name: p.ident("pin name")}
	pin.Net = p.attr("NET")
	pin.Dir = p.attr("DIRECTION")
	pin.Layer = p.attr("LAYER")
	p.expect("+")
	p.expect("PLACED")
	pin.Pos = p.point()
	p.ident("pin orientation")
	p.expect(";")
	return pin
}

// wire reads "layer [width] ( x y ) ( x y )"; special nets carry the
// width, signal nets do not. A signal wire on a layer named VIA would
// read back as a via, so it is rejected.
func (p *parser) wire(width bool) Wire {
	w := Wire{Layer: p.ident("wire layer")}
	if width {
		w.WidthNm = p.int()
	} else if w.Layer == "VIA" {
		p.fail("wire on a layer named VIA at token %d", p.pos-1)
	}
	w.From = p.point()
	w.To = p.point()
	return w
}

// routing reads a record's "[+ ROUTED ...] [NEW ...]* ;" tail, handing
// each segment to seg with the rest of the segment unread; isNew tells a
// NEW segment from the ROUTED one.
func (p *parser) routing(seg func(isNew bool)) {
	for t := p.next(); t != ";" && p.err == nil; t = p.next() {
		switch t {
		case "+":
			p.expect("ROUTED")
		case "NEW":
		default:
			p.fail("unexpected token %q at %d", t, p.pos-1)
			return
		}
		seg(t == "NEW")
	}
}

// specialNet reads "name + USE use [+ ROUTED wire] [NEW wire]* ;".
func (p *parser) specialNet() *SNet {
	sn := &SNet{Name: p.ident("special net name"), Use: p.attr("USE")}
	p.routing(func(bool) { sn.Wires = append(sn.Wires, p.wire(true)) })
	return sn
}

// net reads "name ( comp pin )* [+ ROUTED wire] [NEW wire]*
// [NEW VIA from to ( x y )]* ;".
func (p *parser) net() *Net {
	n := &Net{Name: p.ident("net name")}
	for p.peek() == "(" {
		p.next()
		n.Pins = append(n.Pins, NetPin{Comp: p.ident("net pin component"), Pin: p.ident("net pin")})
		p.expect(")")
	}
	p.routing(func(isNew bool) {
		if isNew && p.peek() == "VIA" {
			p.next()
			v := Via{FromLayer: p.ident("via layer"), ToLayer: p.ident("via layer")}
			v.At = p.point()
			n.Vias = append(n.Vias, v)
			return
		}
		n.Wires = append(n.Wires, p.wire(false))
	})
	return n
}
