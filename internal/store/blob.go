package store

import (
	"fmt"
	"os"
	"path/filepath"
)

// Blob persistence: small named artifacts that ride in the result
// store's directory — today the optimizer's trained surrogate models
// (weights + feature map + training-set hash), persisted on study
// completion so a restarted service can warm-start the next study.
//
// Blobs live under dir/models/ — "models" is not a hex string, so the
// startup entry scan (which only descends into validKey directories)
// never confuses the blob area with spec-hash result directories.
// Writes go through writeAtomic, as result entries and journals do.

// blobDir is the subdirectory blobs live in.
const blobDir = "models"

// validBlobName accepts conservative artifact names: letters, digits,
// dot, dash, underscore — no path separators, no leading dot (which
// would collide with temp files and hidden-file conventions).
func validBlobName(name string) bool {
	if name == "" || name[0] == '.' {
		return false
	}
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z':
		case c >= 'A' && c <= 'Z':
		case c >= '0' && c <= '9':
		case c == '.' || c == '-' || c == '_':
		default:
			return false
		}
	}
	return true
}

// BlobPath returns where a blob lives on disk (exposed for tests and
// operator inspection).
func (s *Store) BlobPath(name string) string {
	return filepath.Join(s.dir, blobDir, name)
}

// PutBlob durably persists a named artifact, atomically: the blob is
// visible in full or not at all, and an existing blob of the same name
// is replaced atomically.
func (s *Store) PutBlob(name string, data []byte) error {
	if !validBlobName(name) {
		return fmt.Errorf("store: put blob: invalid name %q", name)
	}
	err := writeAtomic(s.BlobPath(name), func(f *os.File) error {
		_, err := f.Write(data)
		return err
	})
	if err != nil {
		return fmt.Errorf("store: put blob %s: %w", name, err)
	}
	return nil
}

// GetBlob loads a named artifact. A missing blob returns ErrNotFound.
func (s *Store) GetBlob(name string) ([]byte, error) {
	if !validBlobName(name) {
		return nil, ErrNotFound
	}
	data, err := os.ReadFile(s.BlobPath(name))
	if os.IsNotExist(err) {
		return nil, ErrNotFound
	}
	if err != nil {
		return nil, fmt.Errorf("store: get blob %s: %w", name, err)
	}
	return data, nil
}
