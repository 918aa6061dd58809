// libFuzzer harness for the XMI reader, the model checker and the
// lowering.  Arbitrary bytes must only ever exit through the structured
// parse errors (xml::ParseError for malformed markup, xmi::XmiError for
// well-formed XML that is not a valid model document).  Every model that
// parses is checked, and every model the checker passes must lower: an
// escaping exception (a lower::LowerError included), a crash, a hang or a
// sanitizer report is a finding.  So the checker and the total lowering
// it reads are fuzzed on malformed models too — dangling edges, repeated
// ids, missing bodies.
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "prophet/check/checker.hpp"
#include "prophet/lower/lower.hpp"
#include "prophet/xmi/xmi.hpp"
#include "prophet/xml/parser.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string_view text(reinterpret_cast<const char*>(data), size);
  try {
    const prophet::uml::Model model = prophet::xmi::from_xml(text);
    if (prophet::check::ModelChecker().check(model).ok()) {
      (void)prophet::lower::lower(model);
    }
  } catch (const prophet::xml::ParseError&) {
  } catch (const prophet::xmi::XmiError&) {
  }
  return 0;
}
