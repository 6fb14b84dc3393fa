// Dataset and model (de)serialization. Profiling and training are the
// expensive steps of the pipeline (on real hardware: hours of kernel
// measurements, then model fitting), so StencilMART persists both:
//
// Profiled corpora use a plain-text sectioned format that is stable across
// runs and diff-friendly, one record per line:
//
//   stencilmart-dataset-v1
//   dims max_order num_stencils samples_per_oc seed noise_sigma vary vary
//   shard shard_idx shard_count retries fault_spec|-    (shards only)
//   stencil nx ny nz periodic x:y:z;x:y:z;...           (num_stencils)
//   setting stencil_idx oc_idx block_x block_y ... tb_depth
//   time stencil_idx gpu_idx oc_idx setting_idx time_ms|crash
//   quar stencil_idx oc_idx gpu_idx free-text reason
//
// Trained models use a versioned, checksummed artifact (the train-once /
// serve-many path):
//
//   stencilmart-model-v1          <- magic + format version
//   payload <byte count>
//   <payload bytes>               <- config / merger / classifiers /
//                                    regression sections, hexfloat weights
//   checksum <16-hex FNV-1a 64>   <- digest of the payload bytes
//
// The envelope makes the failure modes distinguishable: a wrong magic, an
// unsupported version, a truncated payload, and a corrupted payload each
// raise a distinct std::runtime_error. Weights are written as hexfloat
// tokens, so a loaded model predicts bit-identically to the saved one.
//
// Both formats go through util::TokenWriter / util::TokenReader rather
// than iostreams. An artifact is formatted into one buffer and written
// once; a load reads the file once, checks the envelope and hashes the
// payload once, then parses the payload in place. The stream overloads
// below are adapters that read or write whole buffers.
#pragma once

#include <iosfwd>
#include <string>

#include "core/mart.hpp"
#include "core/profile_dataset.hpp"

namespace smart::core {

/// Writes `dataset` to the stream / file. Throws std::runtime_error on I/O
/// failure. The path overload writes atomically (util/atomic_file): a
/// failed or interrupted save leaves the destination untouched.
void save_dataset(const ProfileDataset& dataset, std::ostream& out);
void save_dataset(const ProfileDataset& dataset, const std::string& path);

/// Reads a dataset back. Throws std::runtime_error on parse errors with
/// "<source>:<line>: ..." context (e.g. "corpus.txt:1042: unparsable time
/// field '1.2.3'"); the result is bit-identical to the saved dataset
/// (validated by tests). `source` names the stream in error messages.
/// Records must carry exactly their fields and offsets must lie within the
/// header's dims and max_order; the header's stencil count is checked
/// against the stencil records before any table is sized (DESIGN.md §11).
ProfileDataset load_dataset(std::istream& in,
                            const std::string& source = "<stream>");
ProfileDataset load_dataset(const std::string& path);

/// Writes a trained StencilMart (config, OC merger, per-GPU classifiers,
/// fitted regressor) as a versioned model artifact, formatted into one
/// buffer and written in one call. Throws std::logic_error before train()
/// and std::runtime_error on I/O failure. Records the "serialize.save"
/// timing phase. The path overload writes atomically.
void save_model(const StencilMart& mart, std::ostream& out);
void save_model(const StencilMart& mart, const std::string& path);

/// Reads a model artifact back into a ready-to-serve StencilMart: advise()
/// and recommend_gpu() work immediately, predict bit-identically to the
/// saved instance, and need no profiling corpus (the loaded mart carries a
/// zero-stencil serving dataset). Throws std::runtime_error with a distinct
/// message for bad magic, unsupported version, truncation, checksum
/// mismatch, and malformed payload; payload parse errors carry
/// "<source>: payload byte offset N: ..." context, N being the offset of
/// the offending token within the payload. Counts are checked against the
/// payload bytes left before anything is sized from them, and every tree
/// split must read a feature inside its model's input row (the Table II
/// width of the artifact's max_order for the classifiers, the encoded
/// feature row for a GBR). Records "serialize.load".
StencilMart load_model(std::istream& in,
                       const std::string& source = "<stream>");
StencilMart load_model(const std::string& path);

/// Envelope metadata of a model artifact (inspect_model, or the load_model
/// overload below). The serve daemon's startup banner and `healthz` reply report these so
/// operators can confirm which artifact is live after a hot reload.
struct ModelArtifactInfo {
  std::string version;   // magic line, e.g. "stencilmart-model-v1"
  std::string checksum;  // 16-hex FNV-1a 64 digest of the payload bytes
};

/// load_model(path) that also reports the envelope metadata of the bytes it
/// loaded: the file is read and hashed once, so the metadata always
/// describes the returned model even when the path is replaced mid-load.
StencilMart load_model(const std::string& path, ModelArtifactInfo& info);

/// Reads and validates the artifact envelope (magic, payload byte count,
/// checksum) and returns its metadata, without parsing the payload. The
/// envelope check is load_model's own, so it throws the same distinct
/// std::runtime_error diagnostics for bad magic, unsupported version,
/// truncation, and checksum mismatch.
ModelArtifactInfo inspect_model(std::istream& in);
ModelArtifactInfo inspect_model(const std::string& path);

}  // namespace smart::core
