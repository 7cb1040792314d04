// Package keyfile defines the on-disk JSON formats the command-line tools
// exchange: identities (name + seed), entity directories (name + public
// key), and delegation bundles (delegation + support proofs).
package keyfile

import (
	"crypto/ed25519"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"drbac/internal/core"
)

// IdentityFile holds a private identity. Treat the file like a private key.
type IdentityFile struct {
	Name string `json:"name"`
	// Seed is the hex-encoded 32-byte ed25519 seed.
	Seed string `json:"seed"`
}

// GenerateIdentity creates a fresh identity file.
func GenerateIdentity(name string) (IdentityFile, error) {
	seed := make([]byte, ed25519.SeedSize)
	if _, err := rand.Read(seed); err != nil {
		return IdentityFile{}, fmt.Errorf("keyfile: generate seed: %w", err)
	}
	return IdentityFile{Name: name, Seed: hex.EncodeToString(seed)}, nil
}

// Identity reconstructs the signing identity.
func (f IdentityFile) Identity() (*core.Identity, error) {
	seed, err := hex.DecodeString(f.Seed)
	if err != nil {
		return nil, fmt.Errorf("keyfile: bad seed: %w", err)
	}
	return core.IdentityFromSeed(f.Name, seed)
}

// WriteIdentity writes an identity file with owner-only permissions.
func WriteIdentity(path string, f IdentityFile) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o600)
}

// ReadIdentity loads an identity file.
func ReadIdentity(path string) (IdentityFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return IdentityFile{}, err
	}
	var f IdentityFile
	if err := json.Unmarshal(data, &f); err != nil {
		return IdentityFile{}, fmt.Errorf("keyfile %s: %w", path, err)
	}
	if f.Name == "" || f.Seed == "" {
		return IdentityFile{}, fmt.Errorf("keyfile %s: missing name or seed", path)
	}
	return f, nil
}

// DirectoryEntry is one public entity in a directory file.
type DirectoryEntry struct {
	Name string `json:"name"`
	// Key is the ed25519 public key (base64 via encoding/json).
	Key []byte `json:"key"`
}

// WriteDirectory writes a directory file.
func WriteDirectory(path string, entries []DirectoryEntry) error {
	data, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadDirectory loads a directory file into a resolvable directory.
func ReadDirectory(path string) (*core.MemDirectory, []DirectoryEntry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var entries []DirectoryEntry
	if err := json.Unmarshal(data, &entries); err != nil {
		return nil, nil, fmt.Errorf("directory %s: %w", path, err)
	}
	dir := core.NewDirectory()
	for _, e := range entries {
		if len(e.Key) != ed25519.PublicKeySize {
			return nil, nil, fmt.Errorf("directory %s: entity %q has a bad key", path, e.Name)
		}
		dir.Add(core.Entity{Name: e.Name, Key: e.Key})
	}
	return dir, entries, nil
}

// Bundle is a delegation plus the support proofs it travels with.
type Bundle struct {
	Delegation *core.Delegation `json:"delegation"`
	Support    []*core.Proof    `json:"support,omitempty"`
}

// WriteBundle writes a delegation bundle.
func WriteBundle(path string, b Bundle) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadBundle loads a delegation bundle.
func ReadBundle(path string) (Bundle, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Bundle{}, err
	}
	var b Bundle
	if err := json.Unmarshal(data, &b); err != nil {
		return Bundle{}, fmt.Errorf("bundle %s: %w", path, err)
	}
	if b.Delegation == nil {
		return Bundle{}, fmt.Errorf("bundle %s: missing delegation", path)
	}
	return b, nil
}
