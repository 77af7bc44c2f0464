#!/usr/bin/env python3
"""Every wire MsgType enumerator must be registered and fuzz-covered.

encode_message and decode_message both dispatch through one type table
in src/wire/codec.cpp (`kWireTypes`, one MsgType per Message
alternative), and each message has one field list that drives both
directions; a static_assert there ties the table to the Message
variant. An enumerator missing from the table is a type the codec can
neither send nor receive; one that decodes but is never fuzzed is a
crash waiting for the corrupt fault mode. This check parses the MsgType
enum from src/wire/codec.hpp and requires each enumerator to

  1. be registered in the type table (`MsgType::kX` inside the
     `kWireTypes` initializer in src/wire/codec.cpp), and
  2. have its payload struct (the enumerator name minus the leading
     `k`) exercised in tests/wire/codec_fuzz_test.cpp's representative
     corpus.
"""

import pathlib
import re
import sys

ENUM_RE = re.compile(
    r"enum\s+class\s+MsgType[^{]*\{(?P<body>.*?)\}", re.DOTALL
)
ENUMERATOR_RE = re.compile(r"(?:^|,)\s*(k\w+)\s*=", re.MULTILINE)
TABLE_RE = re.compile(r"kWireTypes\[\]\s*=\s*\{(?P<body>.*?)\}", re.DOTALL)


def parse_enumerators(codec_hpp: str) -> list[str]:
    m = ENUM_RE.search(codec_hpp)
    if m is None:
        raise RuntimeError("MsgType enum not found in codec.hpp")
    return ENUMERATOR_RE.findall(m.group("body"))


def check(codec_hpp: str, codec_cpp: str, fuzz_cpp: str) -> list[str]:
    violations = []
    enumerators = parse_enumerators(codec_hpp)
    if not enumerators:
        return ["no MsgType enumerators parsed from codec.hpp"]
    table = TABLE_RE.search(codec_cpp)
    if table is None:
        return ["type table kWireTypes not found in codec.cpp"]
    for name in enumerators:
        if not re.search(rf"MsgType::{name}\b", table.group("body")):
            violations.append(
                f"MsgType::{name}: not registered in codec.cpp's type "
                f"table (kWireTypes)"
            )
        struct_name = name[1:]  # kAcceptObject -> AcceptObject
        if not re.search(rf"\b{struct_name}\b", fuzz_cpp):
            violations.append(
                f"MsgType::{name}: payload struct {struct_name} missing "
                f"from tests/wire/codec_fuzz_test.cpp's representative "
                f"corpus"
            )
    return violations


def selftest() -> int:
    """Seed an unregistered enumerator; the check must flag both the
    missing registration and the missing fuzz coverage."""
    hpp = """
    enum class MsgType : std::uint8_t {
      kPing = 1,
      kBogusUnregistered = 2,
    };
    """
    cpp = """
    constexpr MsgType kWireTypes[] = {
        MsgType::kPing,
    };
    """
    fuzz = "all.emplace_back(Ping{});"
    hits = check(hpp, cpp, fuzz)
    assert len(hits) == 2, f"expected 2 violations, got {hits}"
    assert any("kBogusUnregistered" in h and "type table" in h
               for h in hits)
    assert any("BogusUnregistered" in h and "corpus" in h for h in hits)

    # A mention outside the table (say, a stray comparison) does not
    # register the type.
    hits = check(
        "enum class MsgType : std::uint8_t { kPing = 1, kPong = 2, };",
        cpp + "if (t == MsgType::kPong) {}",
        fuzz + " Pong{}",
    )
    assert len(hits) == 1 and "kPong" in hits[0], hits

    # No table at all is a violation, not a silent pass.
    hits = check("enum class MsgType : std::uint8_t { kPing = 1, };",
                 "", fuzz)
    assert len(hits) == 1 and "not found" in hits[0], hits

    # Fully registered enumerator: quiet.
    assert check(
        "enum class MsgType : std::uint8_t { kPing = 1, };", cpp, fuzz
    ) == []
    print("check_msgtype: selftest OK")
    return 0


def main() -> int:
    if "--selftest" in sys.argv:
        return selftest()
    root = pathlib.Path(__file__).resolve().parents[2]
    violations = check(
        (root / "src/wire/codec.hpp").read_text(),
        (root / "src/wire/codec.cpp").read_text(),
        (root / "tests/wire/codec_fuzz_test.cpp").read_text(),
    )
    for v in violations:
        print(v, file=sys.stderr)
    if violations:
        print(f"check_msgtype: {len(violations)} violation(s)",
              file=sys.stderr)
        return 1
    print("check_msgtype: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
