// Durable checkpoint files for LiveSession.
//
// LiveSession::serialize_state() captures the full session -- per-IXP
// engine state, per-feed announce-windows and framing positions,
// published watermarks, queued-but-undrained observations -- as one
// opaque payload. This module is the file layer around it:
//
//   +----------+---------+-------------+--------+-----------------+
//   | "MLPCKPT\0" magic   | u32 version | u64 payload length       |
//   | u32 CRC32C(payload) | payload bytes ...                      |
//   +-----------------------------------------------------------—-+
//
// (all integers big-endian, like every other mlp wire format). The
// CRC32C (Castagnoli) guards the payload against torn writes and bit
// rot: a loader either gets the exact bytes serialize_state() produced
// or a ParseError -- never garbage handed to restore_state().
//
// Durability protocol: write_checkpoint_file() writes PATH.tmp, fsyncs
// it, rotates the current PATH to PATH.1 (the previous generation) and
// renames the temp file into place, fsyncing the directory -- so a
// crash at ANY instant leaves either the new checkpoint, the previous
// one, or both on disk, each self-validating. read_checkpoint_file()
// mirrors that: PATH first, falling back to PATH.1 when PATH is
// missing, truncated or fails its CRC, and failing loudly
// (CheckpointError) when neither generation is loadable. It never
// "repairs" anything: a bad checkpoint is reported, not guessed at.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace mlp::pipeline {

class LiveSession;

/// File-layer failure: the checkpoint could not be written or no
/// generation could be read. Distinct from ParseError (bytes were read
/// fine but are not a valid checkpoint image).
class CheckpointError : public std::runtime_error {
 public:
  explicit CheckpointError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Bump when the LiveSession payload layout changes; a loader rejects
/// versions it does not speak instead of misparsing them.
constexpr std::uint32_t kCheckpointVersion = 3;  // v3: one merge policy

/// CRC32C (Castagnoli polynomial, the iSCSI/ext4 checksum), software
/// table implementation.
[[nodiscard]] std::uint32_t crc32c(std::span<const std::uint8_t> data);

/// Wrap a serialize_state() payload in the checkpoint file image
/// (magic, version, length, CRC, payload).
[[nodiscard]] std::vector<std::uint8_t> encode_checkpoint(
    std::span<const std::uint8_t> payload);

/// Validate a file image and return the payload. Throws ParseError on a
/// bad magic, unknown version, truncated/oversized image or CRC
/// mismatch -- arbitrary bytes never reach restore_state().
[[nodiscard]] std::vector<std::uint8_t> decode_checkpoint(
    std::span<const std::uint8_t> image);

/// Atomically publish `payload` as the checkpoint at `path`: write
/// path.tmp, fsync, rotate the existing file to path.1, rename into
/// place, fsync the directory. Throws CheckpointError on I/O failure.
void write_checkpoint_file(const std::string& path,
                           std::span<const std::uint8_t> payload);

struct LoadedCheckpoint {
  std::vector<std::uint8_t> payload;
  /// True when `path` itself was missing or corrupt and the previous
  /// generation (path.1) was loaded instead.
  bool from_previous_generation = false;
};

/// Load the newest valid generation: `path`, falling back to `path.1`.
/// Throws CheckpointError when neither generation yields a valid image.
[[nodiscard]] LoadedCheckpoint read_checkpoint_file(const std::string& path);

/// serialize_state() + write_checkpoint_file(). The session locks are
/// released before any file I/O starts: feeds stall only for the
/// in-memory serialize, never for the disk.
void save_checkpoint(LiveSession& session, const std::string& path);

/// read_checkpoint_file() + restore_state(), falling back one
/// generation when the newest payload fails to parse or no longer
/// matches the session wiring. Returns the generation actually loaded.
/// Throws CheckpointError when no generation could be restored.
[[nodiscard]] LoadedCheckpoint restore_checkpoint(LiveSession& session,
                                                  const std::string& path);

}  // namespace mlp::pipeline
