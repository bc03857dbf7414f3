package bird

import (
	"reflect"
	"testing"
	"time"

	"github.com/dice-project/dice/internal/bgp"
	"github.com/dice-project/dice/internal/bgp/policy"
	"github.com/dice-project/dice/internal/node"
)

// TestConfigPrivacyCovers locks the privacy contract to the struct: every
// Config field must carry a deliberate classification, so adding a field
// without deciding whether it may cross a domain boundary fails here.
func TestConfigPrivacyCovers(t *testing.T) {
	classes := node.ConfigPrivacy()
	typ := reflect.TypeOf(Config{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if _, ok := classes[name]; !ok {
			t.Errorf("Config field %s has no privacy classification — classify it in ConfigPrivacy", name)
		}
	}
	for name := range classes {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("ConfigPrivacy classifies nonexistent field %s", name)
		}
	}
}

// TestConfigRedacted proves the redacted projection keeps exactly the
// PrivacyShared fields and zeroes everything classified private.
func TestConfigRedacted(t *testing.T) {
	cfg := &Config{
		Name:     "R1",
		AS:       65001,
		RouterID: 1,
		Networks: []bgp.Prefix{bgp.MustParsePrefix("10.1.0.0/16")},
		Neighbors: []NeighborConfig{
			{Name: "R2", AS: 65002, Import: "SECRET-IMPORT", Export: "SECRET-EXPORT"},
		},
		Policies: map[string]*policy.Policy{
			"SECRET-IMPORT": policy.AcceptAll("SECRET-IMPORT"),
			"SECRET-EXPORT": policy.AcceptAll("SECRET-EXPORT"),
		},
		HoldTime:          42 * time.Second,
		KeepaliveInterval: 7 * time.Second,
		ConnectRetry:      3 * time.Second,
	}
	red := cfg.Redacted()

	classes := node.ConfigPrivacy()
	cv := reflect.ValueOf(*cfg)
	rv := reflect.ValueOf(*red)
	typ := reflect.TypeOf(Config{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		got := rv.Field(i)
		switch classes[name] {
		case node.PrivacyShared:
			if !reflect.DeepEqual(got.Interface(), cv.Field(i).Interface()) {
				t.Errorf("shared field %s not preserved: %v", name, got)
			}
		case node.PrivacyPrivate:
			if !got.IsZero() {
				t.Errorf("private field %s survived redaction: %v", name, got)
			}
		}
	}
}
