package topology

import (
	"math"
	"strings"
	"testing"
)

// TestScaleValidate exercises every rejection branch plus the presets,
// which must all be valid.
func TestScaleValidate(t *testing.T) {
	for _, tc := range []struct {
		name    string
		mutate  func(*Scale)
		wantErr string // substring; "" = valid
	}{
		{"small preset", func(s *Scale) {}, ""},
		{"share bounds", func(s *Scale) {
			s.CellularASShare, s.WiFiShare, s.SecondaryCloudShare = 0, 1, 0
		}, ""},
		{"zero clouds", func(s *Scale) { s.CloudsPerRegion = 0 }, "CloudsPerRegion"},
		{"zero metros", func(s *Scale) { s.MetrosPerRegion = 0 }, "MetrosPerRegion"},
		{"zero tier1", func(s *Scale) { s.Tier1Count = 0 }, "Tier1Count"},
		{"zero transit", func(s *Scale) { s.TransitPerRegion = 0 }, "TransitPerRegion"},
		{"zero eyeballs", func(s *Scale) { s.EyeballsPerRegion = 0 }, "EyeballsPerRegion"},
		{"zero min BGP", func(s *Scale) { s.MinBGPPerAS = 0 }, "MinBGPPerAS"},
		{"inverted BGP range", func(s *Scale) { s.MaxBGPPerAS = s.MinBGPPerAS - 1 }, "MaxBGPPerAS"},
		{"negative mask shorten", func(s *Scale) { s.MaxMaskShorten = -1 }, "MaxMaskShorten"},
		{"huge mask shorten", func(s *Scale) { s.MaxMaskShorten = 9 }, "MaxMaskShorten"},
		{"cellular share > 1", func(s *Scale) { s.CellularASShare = 1.5 }, "CellularASShare"},
		{"NaN cellular share", func(s *Scale) { s.CellularASShare = math.NaN() }, "CellularASShare"},
		{"negative wifi share", func(s *Scale) { s.WiFiShare = -0.2 }, "WiFiShare"},
		{"secondary share > 1", func(s *Scale) { s.SecondaryCloudShare = 2 }, "SecondaryCloudShare"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := SmallScale()
			tc.mutate(&sc)
			err := sc.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate() accepted invalid scale %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("Validate() = %q, want mention of %q", err, tc.wantErr)
			}
		})
	}
}

// TestPresetScalesValid: every preset must pass its own validation.
func TestPresetScalesValid(t *testing.T) {
	for name, sc := range map[string]Scale{
		"small": SmallScale(), "medium": MediumScale(), "large": LargeScale(),
	} {
		if err := sc.Validate(); err != nil {
			t.Errorf("%s preset invalid: %v", name, err)
		}
	}
}

// TestScaleByName is the -scale flag's table: the three presets by name,
// anything else an error that lists them.
func TestScaleByName(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Scale
		ok   bool
	}{
		{"small", SmallScale(), true},
		{"medium", MediumScale(), true},
		{"large", LargeScale(), true},
		{"", Scale{}, false},
		{"Small", Scale{}, false},
		{"huge", Scale{}, false},
	} {
		got, err := ScaleByName(tc.name)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ScaleByName(%q) = %+v, %v; want %+v, ok=%v", tc.name, got, err, tc.want, tc.ok)
		}
		if err != nil && !strings.Contains(err.Error(), "small|medium|large") {
			t.Errorf("ScaleByName(%q) error %q does not list the valid names", tc.name, err)
		}
	}
}
