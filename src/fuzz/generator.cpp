#include "fuzz/generator.hpp"

#include <cstddef>

namespace swsec::fuzz {

std::string GenProgram::render() const {
    return render_subset(std::vector<bool>(chunks.size(), true));
}

std::string GenProgram::render_subset(const std::vector<bool>& keep) const {
    std::string src;
    for (const auto& g : globals) {
        src += g + "\n";
    }
    src += "\n";
    for (const auto& h : helpers) {
        src += h + "\n";
    }
    src += "int main() {\n";
    for (std::size_t i = 0; i < chunks.size(); ++i) {
        if (i < keep.size() && keep[i]) {
            src += chunks[i];
        }
    }
    src += "  return 0;\n}\n";
    return src;
}

} // namespace swsec::fuzz
