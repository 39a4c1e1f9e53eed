package descriptor

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestRenderRoundTripFigure2(t *testing.T) {
	c, err := Parse(figure2)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(c.Render())
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, c.Render())
	}
	if !reflect.DeepEqual(c, back) {
		t.Fatalf("round trip changed component:\n%+v\nvs\n%+v", c, back)
	}
}

func TestRenderRoundTripAperiodic(t *testing.T) {
	src := `<component name="ap" type="aperiodic" enabled="false" importance="4">
	  <implementation bincode="x.Y"/>
	  <aperiodictask runoncup="1" priority="7"/>
	  <outport name="out" interface="RTAI.Mailbox" type="Byte" size="8"/>
	  <property name="note" value="hello &quot;world&quot;"/>
	</component>`
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(c.Render())
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, c.Render())
	}
	if !reflect.DeepEqual(c, back) {
		t.Fatalf("round trip changed component:\n%+v\nvs\n%+v", c, back)
	}
}

// Property: any component generated over the schema's value space
// survives a Render/Parse round trip unchanged.
func TestRenderRoundTripProperty(t *testing.T) {
	prop := func(nameSeed uint16, periodic bool, freq uint8, cpuID, prio uint8,
		usagePct uint8, importance uint8, nPorts uint8, propVal uint16) bool {
		name := fmt.Sprintf("c%04x", nameSeed) // 5 chars, within the 6-char limit
		src := fmt.Sprintf(`<component name=%q type=%q cpuusage="%g" importance="%d">
		  <implementation bincode="gen.Impl"/>`,
			name, map[bool]string{true: "periodic", false: "aperiodic"}[periodic],
			float64(usagePct%100)/100, importance%50)
		if periodic {
			src += fmt.Sprintf(`<periodictask frequence="%d" runoncup="%d" priority="%d"/>`,
				int(freq)+1, cpuID%4, prio%32)
		} else {
			src += fmt.Sprintf(`<aperiodictask runoncup="%d" priority="%d"/>`, cpuID%4, prio%32)
		}
		for i := 0; i < int(nPorts%3); i++ {
			src += fmt.Sprintf(`<outport name="o%d" interface="RTAI.SHM" type="Integer" size="%d"/>`, i, i+1)
			src += fmt.Sprintf(`<inport name="i%d" interface="RTAI.Mailbox" type="Byte" size="%d"/>`, i, i+2)
		}
		src += fmt.Sprintf(`<property name="v" type="Integer" value="%d"/></component>`, propVal)
		c, err := Parse(src)
		if err != nil {
			return false
		}
		back, err := Parse(c.Render())
		if err != nil {
			return false
		}
		return reflect.DeepEqual(c, back)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}
