package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// wallClockKeys are the JSON fields that carry a wall-clock measurement.
// Two runs of the same spec agree on every other field byte for byte, so
// bodies and digests are compared with these removed.
var wallClockKeys = []string{"wall_seconds", "events_per_sec"}

// scrubWallClock removes the wallClockKeys from every object nested in v, a
// value decoded from JSON into interface{} form, and returns v.
func scrubWallClock(v any) any {
	switch x := v.(type) {
	case map[string]any:
		for _, k := range wallClockKeys {
			delete(x, k)
		}
		for k, e := range x {
			x[k] = scrubWallClock(e)
		}
	case []any:
		for i, e := range x {
			x[i] = scrubWallClock(e)
		}
	}
	return v
}

// canonicalBody decodes a JSON body, scrubs its wall-clock fields, and
// re-encodes it with sorted keys, so that two bodies describing the same
// result compare equal however long each took to compute.
func canonicalBody(body []byte) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber() // keep every digit of every number
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, fmt.Errorf("decode body: %w", err)
	}
	return json.Marshal(scrubWallClock(v))
}

// digest is the SHA-256 of v's JSON encoding with the wall-clock fields
// scrubbed, as hex.
func digest(v any) (string, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	canon, err := canonicalBody(raw)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:]), nil
}
