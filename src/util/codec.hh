/**
 * @file
 * One record codec: every wire message and on-disk record is laid out
 * once, in one field list that drives both its encoder and its
 * decoder, so the two can never drift apart.
 *
 * A *format* is a tag enum (payload byte 0) plus a Format descriptor
 * that `formatOf(tag)` returns, found by argument-dependent lookup:
 * the error code its decoders raise (BadWire on sockets, BadJournal on
 * disk), the noun its errors use, and its one tag-name table. A
 * *message* (or record) of the format is a struct with
 *
 *     static constexpr Tag TAG = Tag::Something;
 *
 *     template <typename Io, typename Self>
 *     static void
 *     fields(Io &io, Self &self)
 *     {
 *         io(self.a, self.b, self.c); // in byte order
 *     }
 *
 * where Self is `const T` when encoding and `T` when decoding. The
 * bytes of a message are its tag, then its fields in list order:
 *
 *  - u8 / u32 / u64 little-endian, f64 by bit pattern, bool as one
 *    byte, string as a u32 length and the bytes;
 *  - an enum as one byte, range-checked on decode against the
 *    `enumLimit(E)` declared next to the enum (found by ADL, so an
 *    enum field without a declared limit does not compile);
 *  - std::array<T, N>: N elements, no count;
 *  - std::vector<T>: a u64 count, then the elements. The decoder
 *    refuses a count the remaining bytes cannot hold at T's minimum
 *    encoded size *before* reserving: frame and record CRCs are not
 *    secrets, so a crafted payload passes them;
 *  - a struct with its own `fields` (its tag is not written);
 *  - `io.as(Layout{}, v)`: a type whose field list lives in Layout
 *    (core::RunResult, which the simulator layer does not lay out);
 *  - `io.expect(value, what)`: a u32 constant — a format version or
 *    an array length. The decoder refuses any other value;
 *  - `io.trailing(v)`: an optional trailing u64 (the v2 trace ids),
 *    written only when nonzero and read only when bytes remain, so a
 *    payload without it is exactly the v1 payload. It must be last;
 *  - a conditional field is a plain `if` on a field listed before it
 *    (the decoder has read that one by then). Such a field must be
 *    absent in a default-constructed value, which is what the
 *    minimum-size count of a list assumes.
 *
 * decode<M>() checks the tag, reads the fields, and requires the
 * payload to be fully consumed. Every violation — wrong tag, underrun,
 * out-of-range enum, implausible count, wrong constant, trailing
 * bytes — raises SimError with the format's code.
 */

#ifndef AURORA_UTIL_CODEC_HH
#define AURORA_UTIL_CODEC_HH

#include <array>
#include <concepts>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "record_io.hh"
#include "sim_error.hh"

namespace aurora::util::codec
{

/** Descriptor of one tagged format (see the file comment). */
template <typename Tag, std::size_t N>
struct Format
{
    /** Code every decode failure of the format raises. */
    SimErrorCode error;
    /** What one payload is called in errors ("wire message"). */
    const char *noun;
    /** Every tag of the format with its display name. */
    std::array<std::pair<Tag, const char *>, N> names;

    /** Display name of @p tag ("?" when not a tag of the format). */
    constexpr const char *
    name(Tag tag) const
    {
        for (const auto &[known, label] : names)
            if (known == tag)
                return label;
        return "?";
    }

    /** Byte 0 of @p payload as a tag; error when empty or unknown. */
    Tag
    peek(const std::string &payload) const
    {
        if (payload.empty())
            raiseError(error, "empty ", noun, " payload");
        const auto raw = static_cast<std::uint8_t>(payload[0]);
        for (const auto &entry : names)
            if (static_cast<std::uint8_t>(entry.first) == raw)
                return entry.first;
        raiseError(error, "unknown ", noun, " type ",
                   static_cast<unsigned>(raw));
    }
};

template <typename T>
concept Vector = std::same_as<T, std::vector<typename T::value_type>>;

template <typename T>
concept Array = std::same_as<
    T, std::array<typename T::value_type, std::tuple_size<T>::value>>;

/**
 * Shape dispatch shared by Encoder and Decoder: arrays element by
 * element, vectors and scalars to the Io, structs through their own
 * field list.
 */
template <typename Io>
class Visitor
{
  public:
    /** Visit @p fields in byte order. */
    template <typename... T>
    void
    operator()(T &...fields)
    {
        (field(fields), ...);
    }

    /** Visit @p value through Layout's field list. */
    template <typename Layout, typename T>
    void
    as(Layout, T &value)
    {
        Layout::fields(self(), value);
    }

  private:
    Io &self() { return static_cast<Io &>(*this); }

    template <typename T>
    void
    field(T &value)
    {
        using U = std::remove_const_t<T>;
        if constexpr (Array<U>) {
            for (auto &element : value)
                field(element);
        } else if constexpr (Vector<U>) {
            self().list(value);
        } else if constexpr (std::is_class_v<U> &&
                             !std::is_same_v<U, std::string>) {
            U::fields(self(), value);
        } else {
            self().scalar(value); // anything else fails to compile
        }
    }
};

/** Writes a field list (see the file comment for the shapes). */
class Encoder : public Visitor<Encoder>
{
  public:
    template <typename T>
    void
    scalar(const T &value)
    {
        if constexpr (std::is_same_v<T, bool>)
            w_.u8(value ? 1 : 0);
        else if constexpr (std::is_enum_v<T>)
            w_.u8(static_cast<std::uint8_t>(value));
        else if constexpr (std::is_same_v<T, std::uint8_t>)
            w_.u8(value);
        else if constexpr (std::is_same_v<T, std::uint32_t>)
            w_.u32(value);
        else if constexpr (std::is_same_v<T, std::uint64_t>)
            w_.u64(value);
        else if constexpr (std::is_same_v<T, double>)
            w_.f64(value);
        else
            w_.str(value);
    }

    template <typename T>
    void
    list(const std::vector<T> &elements)
    {
        w_.u64(elements.size());
        for (const T &element : elements)
            (*this)(element);
    }

    void expect(std::uint32_t value, const char *) { w_.u32(value); }

    void
    trailing(std::uint64_t value)
    {
        if (value != 0)
            w_.u64(value);
    }

    const std::string &bytes() const { return w_.bytes(); }

  private:
    ByteWriter w_;
};

/** Fewest bytes an encoded T can take: a default T encodes with
 *  empty strings and lists and without its trailing or conditional
 *  fields, and every other shape has a fixed width. */
template <typename T>
std::size_t
minBytes()
{
    static const std::size_t bytes = [] {
        Encoder io;
        const T value{};
        io(value);
        return io.bytes().size();
    }();
    return bytes;
}

/** Reads a field list, raising the format's code on any violation. */
class Decoder : public Visitor<Decoder>
{
  public:
    /** @p name and @p noun identify the payload in errors. */
    Decoder(const std::string &payload, SimErrorCode error,
            const char *name, const char *noun)
        : rd_(payload, error), error_(error), name_(name), noun_(noun)
    {
    }

    template <typename T>
    void
    scalar(T &value)
    {
        if constexpr (std::is_same_v<T, bool>) {
            value = rd_.u8() != 0;
        } else if constexpr (std::is_enum_v<T>) {
            const std::uint8_t raw = rd_.u8();
            if (raw > static_cast<unsigned>(enumLimit(T{})))
                fail("enum value ", static_cast<unsigned>(raw),
                     " is out of range");
            value = static_cast<T>(raw);
        } else if constexpr (std::is_same_v<T, std::uint8_t>) {
            value = rd_.u8();
        } else if constexpr (std::is_same_v<T, std::uint32_t>) {
            value = rd_.u32();
        } else if constexpr (std::is_same_v<T, std::uint64_t>) {
            value = rd_.u64();
        } else if constexpr (std::is_same_v<T, double>) {
            value = rd_.f64();
        } else {
            value = rd_.str();
        }
    }

    template <typename T>
    void
    list(std::vector<T> &elements)
    {
        const std::uint64_t count = rd_.u64();
        if (count > rd_.remaining() / minBytes<T>())
            fail("implausible element count ", count);
        elements.clear();
        elements.reserve(count);
        for (std::uint64_t i = 0; i < count; ++i) {
            T element{};
            (*this)(element);
            elements.push_back(std::move(element));
        }
    }

    void
    expect(std::uint32_t want, const char *what)
    {
        const std::uint32_t got = rd_.u32();
        if (got != want)
            fail(what, " is ", got, "; this build reads ", want);
    }

    void
    trailing(std::uint64_t &value)
    {
        if (!rd_.exhausted())
            value = rd_.u64();
    }

    /** Read and check the tag byte. */
    void
    tag(std::uint8_t want)
    {
        const std::uint8_t got = rd_.u8();
        if (got != want)
            raiseError(error_, "expected a ", name_, " ", noun_,
                       ", got type byte ", static_cast<unsigned>(got));
    }

    /** The payload must be fully consumed. */
    void
    finish() const
    {
        if (!rd_.exhausted())
            fail("trailing bytes (format mismatch)");
    }

  private:
    template <typename... Args>
    [[noreturn]] void
    fail(Args &&...args) const
    {
        raiseError(error_, name_, " ", noun_, ": ",
                   std::forward<Args>(args)...);
    }

    ByteReader rd_;
    SimErrorCode error_;
    const char *name_;
    const char *noun_;
};

/** The payload of @p message: its tag, then its field list. */
template <typename M>
std::string
encode(const M &message)
{
    Encoder io;
    io.scalar(M::TAG);
    M::fields(io, message);
    return io.bytes();
}

/** Decode a payload of message type M (see the file comment). */
template <typename M>
M
decode(const std::string &payload)
{
    const auto &format = formatOf(M::TAG);
    Decoder io(payload, format.error, format.name(M::TAG), format.noun);
    io.tag(static_cast<std::uint8_t>(M::TAG));
    M message{};
    M::fields(io, message);
    io.finish();
    return message;
}

} // namespace aurora::util::codec

#endif // AURORA_UTIL_CODEC_HH
