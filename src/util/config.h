// Small text helpers for configuration values.
//
// Experiment configuration is JSON (campaign/json.h, read through
// campaign::ResolveDeviceSection); what is left here is the byte-size
// reader those specs and the bench/example command lines share, plus the
// ASCII trim and lower-case helpers it uses.
#pragma once

#include <cstdint>
#include <string>

namespace ctflash::util {

/// Parses "16KiB"/"4MB"/"64G"/"123"/"1.5K" into bytes. K/M/G/T suffixes
/// (with or without "iB"/"B") are all binary multiples. A digit-only
/// mantissa is read exactly; one with a '.' is read as a double and
/// truncated. Throws std::invalid_argument on malformed text and on sizes
/// of 2^64 bytes or more.
std::uint64_t ParseByteSize(const std::string& text);

/// Trims ASCII whitespace from both ends.
std::string Trim(const std::string& s);

/// Lower-cases ASCII.
std::string ToLower(const std::string& s);

}  // namespace ctflash::util
