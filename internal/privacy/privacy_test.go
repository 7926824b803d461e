package privacy

import (
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"provpriv/internal/workflow"
)

func diseasePolicy(t *testing.T) (*workflow.Spec, *Policy) {
	t.Helper()
	s := workflow.DiseaseSusceptibility()
	p := NewPolicy(s.ID)
	p.DataLevels["disorders"] = Analyst
	p.DataLevels["snps"] = Owner
	p.ModuleLevels["M1"] = Owner
	p.Structural = []HiddenPair{{From: "M13", To: "M11", Level: Owner}}
	p.ViewGrants[Registered] = []string{"W2"}
	p.ViewGrants[Analyst] = []string{"W4", "W3"}
	if err := p.Validate(s); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return s, p
}

func TestCanSeeData(t *testing.T) {
	_, p := diseasePolicy(t)
	if p.CanSeeData(Public, "disorders") {
		t.Fatal("public sees disorders")
	}
	if !p.CanSeeData(Analyst, "disorders") {
		t.Fatal("analyst blind to disorders")
	}
	if !p.CanSeeData(Public, "prognosis") {
		t.Fatal("unlisted attribute not public")
	}
}

func TestHiddenAttrs(t *testing.T) {
	_, p := diseasePolicy(t)
	got := strings.Join(p.HiddenAttrs(Registered), ",")
	if got != "disorders,snps" {
		t.Fatalf("HiddenAttrs(Registered) = %s", got)
	}
	if len(p.HiddenAttrs(Owner)) != 0 {
		t.Fatal("owner has hidden attrs")
	}
}

func TestCanSeeModule(t *testing.T) {
	_, p := diseasePolicy(t)
	if p.CanSeeModule(Analyst, "M1") {
		t.Fatal("analyst sees private module M1")
	}
	if !p.CanSeeModule(Owner, "M1") {
		t.Fatal("owner blind to M1")
	}
	if !p.CanSeeModule(Public, "M3") {
		t.Fatal("unlisted module not public")
	}
}

func TestAccessViewCumulative(t *testing.T) {
	s, p := diseasePolicy(t)
	h, _ := workflow.NewHierarchy(s)

	pub := p.AccessView(h, Public)
	if strings.Join(pub.IDs(), ",") != "W1" {
		t.Fatalf("public view = %v", pub.IDs())
	}
	reg := p.AccessView(h, Registered)
	if strings.Join(reg.IDs(), ",") != "W1,W2" {
		t.Fatalf("registered view = %v", reg.IDs())
	}
	// W3 is granted at Analyst, but the pair M13->M11 hidden below Owner
	// withdraws it until then.
	an := p.AccessView(h, Analyst)
	if strings.Join(an.IDs(), ",") != "W1,W2,W4" {
		t.Fatalf("analyst view = %v", an.IDs())
	}
	own := p.AccessView(h, Owner)
	if strings.Join(own.IDs(), ",") != "W1,W2,W3,W4" {
		t.Fatalf("owner view = %v", own.IDs())
	}
	// All results are valid prefixes.
	for _, pre := range []workflow.Prefix{pub, reg, an, own} {
		if err := pre.Validate(h); err != nil {
			t.Fatalf("access view invalid: %v", err)
		}
	}
}

func TestAccessViewClosesUnderParents(t *testing.T) {
	s, _ := diseasePolicy(t)
	h, _ := workflow.NewHierarchy(s)
	p := NewPolicy(s.ID)
	p.ViewGrants[Registered] = []string{"W4"} // deep grant; W2 must come along
	v := p.AccessView(h, Registered)
	if strings.Join(v.IDs(), ",") != "W1,W2,W4" {
		t.Fatalf("view = %v, want parent closure", v.IDs())
	}
}

// TestAccessViewWithdrawsSharedWorkflow: a pair hidden from a level
// withdraws the deepest workflow holding both endpoints, with its subtree,
// and nothing else; at the pair's own level it withdraws nothing.
func TestAccessViewWithdrawsSharedWorkflow(t *testing.T) {
	s := workflow.DiseaseSusceptibility()
	h, _ := workflow.NewHierarchy(s)
	for _, c := range []struct {
		from, to string
		below    string // the Analyst view while the pair is hidden
	}{
		{"M13", "M11", "W1,W2,W4"}, // both in W3
		{"M6", "M8", "W1,W2,W3"},   // both in W4, under W2
		{"M3", "M6", "W1,W3"},      // M3 in W2, M6 in W4: W2 holds both, W4 goes with it
		{"M4", "M7", "W1,W3"},      // a composite endpoint: M4 is a module of W2
		{"M13", "M13", "W1,W2,W4"}, // one module: its own workflow
	} {
		p := NewPolicy(s.ID)
		p.ViewGrants[Public] = []string{"W3", "W4"}
		p.Structural = []HiddenPair{{From: c.from, To: c.to, Level: Owner}}
		if err := p.Validate(s); err != nil {
			t.Fatalf("%s->%s: Validate: %v", c.from, c.to, err)
		}
		for _, l := range []Level{Public, Analyst} {
			v := p.AccessView(h, l)
			if got := strings.Join(v.IDs(), ","); got != c.below {
				t.Errorf("%s->%s hidden from %s: view %s, want %s", c.from, c.to, l, got, c.below)
			}
			if err := v.Validate(h); err != nil {
				t.Errorf("%s->%s at %s: %v", c.from, c.to, l, err)
			}
		}
		if got := strings.Join(p.AccessView(h, Owner).IDs(), ","); got != "W1,W2,W3,W4" {
			t.Errorf("%s->%s at its own level: view %s, want every workflow", c.from, c.to, got)
		}
	}
}

func TestViewLevels(t *testing.T) {
	_, p := diseasePolicy(t) // grants at Registered and Analyst, a pair at Owner
	p.Structural = append(p.Structural, HiddenPair{From: "M6", To: "M8", Level: Analyst})
	if got := p.ViewLevels(); !slices.Equal(got, []Level{Registered, Analyst, Owner}) {
		t.Fatalf("ViewLevels = %v, want [registered analyst owner]", got)
	}
}

// TestValidateRefusesUnhideablePair: a pair whose modules share no
// composite — their deepest shared workflow is the root — has nothing the
// access view could withdraw, so Validate refuses it and names it.
func TestValidateRefusesUnhideablePair(t *testing.T) {
	s := workflow.DiseaseSusceptibility()
	for _, hp := range []HiddenPair{
		{From: "M3", To: "M9", Level: Owner},  // W2 and W3
		{From: "I", To: "O", Level: Analyst},  // both in the root
		{From: "M1", To: "M13", Level: Owner}, // a root composite and a module of W3
	} {
		p := NewPolicy(s.ID)
		p.Structural = []HiddenPair{{From: "M13", To: "M11", Level: Owner}, hp}
		err := p.Validate(s)
		if err == nil || !strings.Contains(err.Error(), hp.From+"->"+hp.To) {
			t.Errorf("pair %s->%s: Validate = %v, want a refusal naming the pair", hp.From, hp.To, err)
		}
	}
}

func TestValidateRejectsUnknownRefs(t *testing.T) {
	s := workflow.DiseaseSusceptibility()
	cases := []func(p *Policy){
		func(p *Policy) { p.DataLevels["nope"] = Analyst },
		func(p *Policy) { p.ModuleLevels["MX"] = Owner },
		func(p *Policy) { p.Structural = []HiddenPair{{From: "MX", To: "M1", Level: Owner}} },
		func(p *Policy) { p.Structural = []HiddenPair{{From: "M1", To: "MX", Level: Owner}} },
		func(p *Policy) { p.ViewGrants[Registered] = []string{"WX"} },
	}
	for i, mut := range cases {
		p := NewPolicy(s.ID)
		mut(p)
		if err := p.Validate(s); err == nil {
			t.Errorf("case %d: invalid policy accepted", i)
		}
	}
	// Wrong spec id.
	p := NewPolicy("other")
	if err := p.Validate(s); err == nil {
		t.Error("policy for wrong spec accepted")
	}
}

func TestLevelString(t *testing.T) {
	if Public.String() != "public" || Owner.String() != "owner" {
		t.Fatal("level names wrong")
	}
	if Level(9).String() != "level9" {
		t.Fatalf("Level(9) = %s", Level(9))
	}
}

func TestPolicyJSONRoundTrip(t *testing.T) {
	s, p := diseasePolicy(t)
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var p2 Policy
	if err := json.Unmarshal(data, &p2); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if err := p2.Validate(s); err != nil {
		t.Fatalf("round-tripped policy invalid: %v", err)
	}
	if p2.DataLevels["snps"] != Owner || p2.ModuleLevels["M1"] != Owner {
		t.Fatalf("fields lost: %+v", p2)
	}
	if len(p2.Structural) != 1 || p2.Structural[0].From != "M13" {
		t.Fatalf("structural lost: %+v", p2.Structural)
	}
	h, _ := workflow.NewHierarchy(s)
	if strings.Join(p2.AccessView(h, Registered).IDs(), ",") != "W1,W2" {
		t.Fatal("view grants lost")
	}
}
