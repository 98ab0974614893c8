// JSON text helpers shared by the report writers (the scenario report,
// the lint report and SARIF).
#pragma once

#include <iosfwd>
#include <string>

namespace hfsc {

// `s` escaped for use inside a JSON string literal (quotes not added).
std::string json_escape(const std::string& s);

// Writes `v` with 12 significant digits, or `null` when it is not finite.
void json_num(std::ostream& os, double v);

}  // namespace hfsc
