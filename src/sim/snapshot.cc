#include "sim/snapshot.hh"

#include <cstdio>
#include <cstring>

#include "core/cmp_system.hh"

namespace zerodev
{

const std::uint8_t kSnapshotMagic[8] = {'Z', 'D', 'E', 'V',
                                        'S', 'N', 'A', 'P'};

SerialOut &
Snapshot::section(const std::string &name)
{
    for (auto &[n, out] : sections_) {
        if (n == name)
            return out;
    }
    sections_.emplace_back(name, SerialOut{});
    return sections_.back().second;
}

const std::vector<std::uint8_t> *
Snapshot::find(const std::string &name) const
{
    for (const auto &[n, out] : sections_) {
        if (n == name)
            return &out.data();
    }
    return nullptr;
}

std::vector<std::uint8_t>
Snapshot::encode() const
{
    SerialOut body;
    body.u32(kSnapshotVersion);
    body.u32(static_cast<std::uint32_t>(sections_.size()));
    for (const auto &[name, out] : sections_) {
        body.str(name);
        body.u64(out.size());
        body.raw(out.data().data(), out.size());
    }

    std::vector<std::uint8_t> file;
    file.reserve(sizeof kSnapshotMagic + body.size() + 4);
    file.insert(file.end(), kSnapshotMagic,
                kSnapshotMagic + sizeof kSnapshotMagic);
    file.insert(file.end(), body.data().begin(), body.data().end());
    const std::uint32_t crc = crc32(body.data().data(), body.size());
    SerialOut tail;
    tail.u32(crc);
    file.insert(file.end(), tail.data().begin(), tail.data().end());
    return file;
}

bool
Snapshot::decode(const std::uint8_t *data, std::size_t size,
                 std::string *err)
{
    const auto fail = [err](const char *msg) {
        if (err)
            *err = msg;
        return false;
    };

    sections_.clear();
    if (size < sizeof kSnapshotMagic + 4 + 4 + 4)
        return fail("snapshot truncated");
    if (std::memcmp(data, kSnapshotMagic, sizeof kSnapshotMagic) != 0)
        return fail("bad snapshot magic");

    const std::uint8_t *body = data + sizeof kSnapshotMagic;
    const std::size_t bodySize = size - sizeof kSnapshotMagic - 4;
    SerialIn crcIn(data + size - 4, 4);
    if (crc32(body, bodySize) != crcIn.u32())
        return fail("snapshot CRC mismatch");

    SerialIn in(body, bodySize);
    const std::uint32_t version = in.u32();
    if (version != kSnapshotVersion)
        return fail("unsupported snapshot version");
    const std::uint32_t n = in.u32();
    for (std::uint32_t i = 0; i < n && in.ok(); ++i) {
        const std::string name = in.str();
        const std::uint64_t payload = in.u64();
        if (!in.ok() || in.remaining() < payload)
            return fail("snapshot truncated");
        section(name).raw(in.raw(payload), payload);
    }
    if (!in.exhausted())
        return fail(in.ok() ? "trailing bytes after snapshot sections"
                            : "snapshot truncated");
    return true;
}

bool
Snapshot::writeFile(const std::string &path, std::string *err) const
{
    const std::vector<std::uint8_t> bytes = encode();
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f) {
        if (err)
            *err = "cannot open " + path + " for writing";
        return false;
    }
    const bool ok =
        std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
    const bool closed = std::fclose(f) == 0;
    if (!ok || !closed) {
        if (err)
            *err = "short write to " + path;
        return false;
    }
    return true;
}

bool
Snapshot::readFile(const std::string &path, std::string *err)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        if (err)
            *err = "cannot open " + path;
        return false;
    }
    std::vector<std::uint8_t> bytes;
    std::uint8_t buf[65536];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof buf, f)) > 0)
        bytes.insert(bytes.end(), buf, buf + got);
    const bool readOk = std::ferror(f) == 0;
    std::fclose(f);
    if (!readOk) {
        if (err)
            *err = "read error on " + path;
        return false;
    }
    return decode(bytes.data(), bytes.size(), err);
}

bool
restoreSystemSection(const Snapshot &snap, CmpSystem &sys,
                     std::string *err)
{
    const std::vector<std::uint8_t> *bytes = snap.find("system");
    if (!bytes) {
        if (err)
            *err = "snapshot has no system section";
        return false;
    }
    SerialIn in(*bytes);
    sys.restoreState(in);
    if (!in.exhausted()) {
        if (err)
            *err = in.ok() ? "trailing bytes in system section"
                           : in.error();
        return false;
    }
    return true;
}

bool
CmpSystem::saveSnapshot(const std::string &path, std::string *err) const
{
    Snapshot snap;
    saveState(snap.section("system"));
    return snap.writeFile(path, err);
}

bool
CmpSystem::restoreSnapshot(const std::string &path, std::string *err)
{
    Snapshot snap;
    if (!snap.readFile(path, err))
        return false;
    return restoreSystemSection(snap, *this, err);
}

} // namespace zerodev
