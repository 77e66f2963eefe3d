package main

import (
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"repro/internal/metrics"
)

// An op that writes telemetry (the obs-* workloads) is named by what it
// printed and every file it wrote. The same names and checks apply to an
// op run in process and to the reachsim binary doing the same work, so
// their sim_digests agree exactly when their outputs agree byte for byte.

// stdoutName is the artifact name of an op's standard output.
const stdoutName = "stdout"

// hashArtifacts hashes stdout and every file under dir, keyed by its path
// relative to dir, and returns the hashes and the bytes they cover.
func hashArtifacts(dir string, stdout []byte) (map[string]string, int64, error) {
	files := map[string]string{stdoutName: digest(string(stdout))}
	total := int64(len(stdout))
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		h := sha256.New()
		n, err := io.Copy(h, f)
		if err != nil {
			return err
		}
		files[filepath.ToSlash(rel)] = hex.EncodeToString(h.Sum(nil))[:16]
		total += n
		return nil
	})
	return files, total, err
}

// filesDigest is the sim_digest of an op named by its artifacts.
func filesDigest(files map[string]string) string {
	var lines []string
	for name, h := range files {
		lines = append(lines, name+" "+h)
	}
	sort.Strings(lines)
	return digest(lines...)
}

// differingFiles lists the artifacts two ops do not share byte for byte.
func differingFiles(a, b map[string]string) []string {
	var out []string
	for name, h := range a {
		if b[name] != h {
			out = append(out, name)
		}
	}
	for name := range b {
		if _, ok := a[name]; !ok {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// checkArtifacts checks the telemetry under dir: every name in want
// exists, every .csv starts with metrics.CSVHeader() and every .json
// parses. It returns the failed checks.
func checkArtifacts(dir string, want ...string) []string {
	var fails []string
	for _, name := range want {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			fails = append(fails, fmt.Sprintf("%s not written: %v", name, err))
		}
	}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		switch filepath.Ext(path) {
		case ".csv":
			if msg := checkCSVHeader(path); msg != "" {
				fails = append(fails, msg)
			}
		case ".json":
			raw, err := os.ReadFile(path)
			if err != nil || !json.Valid(raw) {
				fails = append(fails, fmt.Sprintf("%s does not parse as JSON (read err %v)", filepath.Base(path), err))
			}
		}
		return nil
	})
	if err != nil {
		fails = append(fails, err.Error())
	}
	return fails
}

func checkCSVHeader(path string) string {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Sprintf("metrics CSV: %v", err)
	}
	defer f.Close()
	head, err := csv.NewReader(f).Read()
	if err != nil || !slices.Equal(head, metrics.CSVHeader()) {
		return fmt.Sprintf("metrics CSV header %q (err %v), want %q", head, err, metrics.CSVHeader())
	}
	return ""
}

// artifactNote names the artifacts behind a sim_digest mismatch.
func artifactNote(a, b map[string]string) string {
	if a == nil || b == nil {
		return ""
	}
	return " (differing: " + strings.Join(differingFiles(a, b), ", ") + ")"
}
