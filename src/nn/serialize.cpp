#include "nn/serialize.hpp"

#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

#include "util/crc32.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"

namespace gddr::nn {
namespace {

constexpr char kMagic[8] = {'G', 'D', 'D', 'R', 'P', 'A', 'R', 'M'};
constexpr char kCrcMagic[4] = {'C', 'R', 'C', 'S'};

using util::IoError;

}  // namespace

const char* to_string(Section section) {
  switch (section) {
    case Section::kParameters:
      return "parameters";
    case Section::kAdam:
      return "adam";
    case Section::kTrainer:
      return "trainer";
    case Section::kCollector:
      return "collector";
    case Section::kEnvs:
      return "envs";
  }
  return "unknown";
}

void read_bytes(std::istream& is, void* dst, std::size_t size,
                const std::string& field) {
  is.read(static_cast<char*>(dst), static_cast<std::streamsize>(size));
  if (!is) {
    throw IoError("truncated while reading field '" + field + "'");
  }
}

void write_tensor(std::ostream& os, const Tensor& t) {
  write_pod(os, static_cast<std::uint32_t>(t.rows()));
  write_pod(os, static_cast<std::uint32_t>(t.cols()));
  const auto data = t.data();
  os.write(reinterpret_cast<const char*>(data.data()),
           static_cast<std::streamsize>(data.size() * sizeof(float)));
}

namespace {

std::string shape_text(std::uint64_t rows, std::uint64_t cols) {
  return "[" + std::to_string(rows) + "x" + std::to_string(cols) + "]";
}

// Bytes between the read position and the end of `is`; the maximum value
// when the stream cannot tell.
std::uint64_t bytes_left(std::istream& is) {
  constexpr auto kUnknown = std::numeric_limits<std::uint64_t>::max();
  const std::istream::pos_type pos = is.tellg();
  if (pos < 0) return kUnknown;
  is.seekg(0, std::ios::end);
  const std::istream::pos_type end = is.tellg();
  is.seekg(pos);
  if (end < pos) return kUnknown;
  return static_cast<std::uint64_t>(end - pos);
}

// Reads the f32 data of a rows x cols tensor.  Corrupt bytes can declare
// any shape, so the shape is checked against what is left of the stream
// before anything is allocated.
Tensor read_tensor_data(std::istream& is, std::uint32_t rows,
                        std::uint32_t cols, const std::string& field) {
  const std::uint64_t elements = static_cast<std::uint64_t>(rows) * cols;
  constexpr auto kMaxDim =
      static_cast<std::uint32_t>(std::numeric_limits<int>::max());
  if (rows > kMaxDim || cols > kMaxDim ||
      elements > bytes_left(is) / sizeof(float)) {
    throw IoError("field '" + field + "' has shape " +
                  shape_text(rows, cols) +
                  ", more data than the file holds (corrupt file?)");
  }
  Tensor t(static_cast<int>(rows), static_cast<int>(cols));
  auto data = t.data();
  read_bytes(is, data.data(), data.size() * sizeof(float), field + ".data");
  return t;
}

}  // namespace

Tensor read_tensor(std::istream& is, const std::string& field) {
  const auto rows = read_pod<std::uint32_t>(is, field + ".rows");
  const auto cols = read_pod<std::uint32_t>(is, field + ".cols");
  return read_tensor_data(is, rows, cols, field);
}

Tensor read_tensor_checked(std::istream& is, const Tensor& expected,
                           const std::string& field) {
  const auto rows = read_pod<std::uint32_t>(is, field + ".rows");
  const auto cols = read_pod<std::uint32_t>(is, field + ".cols");
  if (rows != static_cast<std::uint32_t>(expected.rows()) ||
      cols != static_cast<std::uint32_t>(expected.cols())) {
    throw IoError("field '" + field + "' shape mismatch (file " +
                  shape_text(rows, cols) + ", destination " +
                  expected.shape_str() + ")");
  }
  return read_tensor_data(is, rows, cols, field);
}

// ---- ContainerWriter ----

void ContainerWriter::add(Section id, std::string payload) {
  for (const auto& [existing, _] : sections_) {
    if (existing == id) {
      throw IoError(std::string("ContainerWriter: duplicate section '") +
                    to_string(id) + "'");
    }
  }
  sections_.emplace_back(id, std::move(payload));
}

void ContainerWriter::write(const std::string& path) const {
  std::ostringstream os(std::ios::binary);
  os.write(kMagic, sizeof kMagic);
  write_pod(os, kFormatVersionSectioned);
  write_pod(os, static_cast<std::uint32_t>(sections_.size()));
  for (const auto& [id, payload] : sections_) {
    write_pod(os, static_cast<std::uint32_t>(id));
    write_pod(os, static_cast<std::uint64_t>(payload.size()));
    os.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  }
  // Checksum trailer: one CRC32 per section, in on-disk order.  Readers
  // that predate the trailer stop after the declared sections and never
  // see it.
  os.write(kCrcMagic, sizeof kCrcMagic);
  write_pod(os, static_cast<std::uint32_t>(sections_.size()));
  for (const auto& [id, payload] : sections_) {
    write_pod(os, util::crc32(payload));
  }
  util::write_file_atomic(path, os.str());
}

// ---- ContainerReader ----

ContainerReader::ContainerReader(const std::string& path) : path_(path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw IoError("cannot open " + path);

  char magic[8];
  is.read(magic, sizeof magic);
  if (!is || std::memcmp(magic, kMagic, sizeof kMagic) != 0) {
    throw IoError("bad magic in " + path + " (not a GDDRPARM file)");
  }
  version_ = read_pod<std::uint32_t>(is, "version");

  if (version_ == kFormatVersionLegacy) {
    // v1: everything after the version field is the parameter body.
    std::ostringstream body(std::ios::binary);
    body << is.rdbuf();
    sections_.emplace_back(Section::kParameters, body.str());
    return;
  }
  if (version_ != kFormatVersionSectioned) {
    throw IoError("unsupported version " + std::to_string(version_) + " in " +
                  path + " (supported: 1, 2)");
  }

  const auto count = read_pod<std::uint32_t>(is, "section count");
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::string label = "section " + std::to_string(i);
    const auto id = read_pod<std::uint32_t>(is, label + ".id");
    const auto size = read_pod<std::uint64_t>(is, label + ".size");
    if (size > bytes_left(is)) {
      throw IoError("truncated " + path + ": " + label + " declares " +
                    std::to_string(size) + " payload bytes, more than the "
                    "file holds");
    }
    std::string payload(static_cast<std::size_t>(size), '\0');
    read_bytes(is, payload.data(), payload.size(), label + ".payload");
    sections_.emplace_back(static_cast<Section>(id), std::move(payload));
  }

  // Checksum trailer (optional for backward compatibility): EOF right
  // after the last section is a legacy unchecksummed v2 file; anything
  // else must be a complete, matching trailer.
  char trailer_magic[4];
  is.read(trailer_magic, sizeof trailer_magic);
  if (is.gcount() == 0) return;  // unchecksummed v2 (pre-trailer writer)
  if (is.gcount() != sizeof trailer_magic ||
      std::memcmp(trailer_magic, kCrcMagic, sizeof kCrcMagic) != 0) {
    throw IoError("corrupt checksum trailer in " + path +
                  " (expected 'CRCS' magic after the last section)");
  }
  const auto crc_count = read_pod<std::uint32_t>(is, "checksum count");
  if (crc_count != count) {
    throw IoError("checksum trailer in " + path + " covers " +
                  std::to_string(crc_count) + " sections, file declares " +
                  std::to_string(count));
  }
  for (std::uint32_t i = 0; i < count; ++i) {
    const auto& [id, payload] = sections_[i];
    const auto stored =
        read_pod<std::uint32_t>(is, std::string("checksum of section '") +
                                        to_string(id) + "'");
    const std::uint32_t actual = util::crc32(payload);
    if (stored != actual) {
      throw IoError(std::string("checksum mismatch in section '") +
                    to_string(id) + "' of " + path +
                    " (file corrupt: stored crc32 " + std::to_string(stored) +
                    ", payload has " + std::to_string(actual) + ")");
    }
  }
}

bool ContainerReader::has(Section id) const {
  for (const auto& [existing, _] : sections_) {
    if (existing == id) return true;
  }
  return false;
}

const std::string& ContainerReader::payload(Section id) const {
  for (const auto& [existing, payload] : sections_) {
    if (existing == id) return payload;
  }
  throw IoError(std::string("missing section '") + to_string(id) + "' in " +
                path_);
}

// ---- parameter payloads ----

std::string parameters_payload(std::span<Parameter* const> params) {
  std::ostringstream os(std::ios::binary);
  write_pod(os, static_cast<std::uint64_t>(params.size()));
  for (const Parameter* p : params) write_tensor(os, p->value);
  return os.str();
}

void load_parameters_payload(const std::string& payload,
                             std::span<Parameter* const> params,
                             const std::string& context) {
  std::istringstream is(payload, std::ios::binary);
  try {
    const auto count = read_pod<std::uint64_t>(is, "parameter count");
    if (count != params.size()) {
      throw IoError("file has " + std::to_string(count) +
                    " parameters, destination expects " +
                    std::to_string(params.size()));
    }
    // Stage every tensor before touching any destination: a throw below
    // leaves `params` exactly as they were.
    std::vector<Tensor> staged;
    staged.reserve(params.size());
    for (std::size_t i = 0; i < params.size(); ++i) {
      staged.push_back(read_tensor_checked(
          is, params[i]->value, "parameter " + std::to_string(i)));
    }
    for (std::size_t i = 0; i < params.size(); ++i) {
      params[i]->value = std::move(staged[i]);
    }
  } catch (const IoError& ex) {
    throw IoError(context + ": " + ex.what());
  }
}

// ---- public entry points ----

void save_parameters(const std::string& path,
                     std::span<Parameter* const> params) {
  ContainerWriter writer;
  writer.add(Section::kParameters, parameters_payload(params));
  try {
    writer.write(path);
  } catch (const IoError& ex) {
    throw IoError(std::string("save_parameters: ") + ex.what());
  }
}

void load_parameters(const std::string& path,
                     std::span<Parameter* const> params) {
  try {
    const ContainerReader reader(path);
    load_parameters_payload(reader.payload(Section::kParameters), params,
                            "parameters");
  } catch (const IoError& ex) {
    throw IoError(std::string("load_parameters: ") + ex.what());
  }
}

}  // namespace gddr::nn
