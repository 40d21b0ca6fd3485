// Package trace defines the passive measurement record that flows from the
// cloud locations to the analytics cluster: Observation, the quartet-level
// record every layer of the pipeline exchanges, with its JSON Lines writer
// (internal/ingest reads the lines back).
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"blameit/internal/netmodel"
)

// Observation is one quartet-level passive measurement: the aggregate of
// TCP handshake RTTs from one /24 to one cloud location in one 5-minute
// bucket, split by device class.
type Observation struct {
	Prefix  netmodel.PrefixID    `json:"prefix"`
	Cloud   netmodel.CloudID     `json:"cloud"`
	Device  netmodel.DeviceClass `json:"device"`
	Bucket  netmodel.Bucket      `json:"bucket"`
	Samples int                  `json:"samples"`
	MeanRTT float64              `json:"mean_rtt_ms"`
	// Clients is the number of distinct client IPs behind the samples.
	Clients int `json:"clients"`
}

// WriteJSONL writes observations as JSON Lines.
func WriteJSONL(w io.Writer, obs []Observation) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range obs {
		if err := enc.Encode(&obs[i]); err != nil {
			return fmt.Errorf("trace: encoding observation %d: %w", i, err)
		}
	}
	return bw.Flush()
}
