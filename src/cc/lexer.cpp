#include "cc/lexer.hpp"

#include <cctype>
#include <unordered_map>

#include "common/error.hpp"

namespace swsec::cc {

namespace {

const std::unordered_map<std::string, Tok>& keywords() {
    static const std::unordered_map<std::string, Tok> kw = {
        {"int", Tok::KwInt},       {"char", Tok::KwChar},         {"void", Tok::KwVoid},
        {"static", Tok::KwStatic}, {"if", Tok::KwIf},             {"else", Tok::KwElse},
        {"while", Tok::KwWhile},   {"for", Tok::KwFor},           {"return", Tok::KwReturn},
        {"break", Tok::KwBreak},   {"continue", Tok::KwContinue}, {"sizeof", Tok::KwSizeof},
    };
    return kw;
}

char unescape(char c, int line) {
    switch (c) {
    case 'n':
        return '\n';
    case 't':
        return '\t';
    case 'r':
        return '\r';
    case '0':
        return '\0';
    case '\\':
        return '\\';
    case '\'':
        return '\'';
    case '"':
        return '"';
    default:
        throw ParseError(std::string("unknown escape '\\") + c + "'", line);
    }
}

} // namespace

std::vector<Token> lex(const std::string& src) {
    std::vector<Token> out;
    std::size_t i = 0;
    int line = 1;
    const auto push = [&](Tok k, std::string text = {}, std::int32_t value = 0) {
        out.push_back(Token{k, std::move(text), value, line});
    };
    while (i < src.size()) {
        const char c = src[i];
        if (c == '\n') {
            ++line;
            ++i;
            continue;
        }
        if (std::isspace(static_cast<unsigned char>(c)) != 0) {
            ++i;
            continue;
        }
        // comments
        if (c == '/' && i + 1 < src.size() && src[i + 1] == '/') {
            while (i < src.size() && src[i] != '\n') {
                ++i;
            }
            continue;
        }
        if (c == '/' && i + 1 < src.size() && src[i + 1] == '*') {
            i += 2;
            while (i + 1 < src.size() && !(src[i] == '*' && src[i + 1] == '/')) {
                if (src[i] == '\n') {
                    ++line;
                }
                ++i;
            }
            if (i + 1 >= src.size()) {
                throw ParseError("unterminated block comment", line);
            }
            i += 2;
            continue;
        }
        if (std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_') {
            std::size_t j = i;
            while (j < src.size() &&
                   (std::isalnum(static_cast<unsigned char>(src[j])) != 0 || src[j] == '_')) {
                ++j;
            }
            const std::string word = src.substr(i, j - i);
            const auto it = keywords().find(word);
            if (it != keywords().end()) {
                push(it->second);
            } else {
                push(Tok::Ident, word);
            }
            i = j;
            continue;
        }
        if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
            // Literals up to 0xFFFFFFFF wrap into int32 (0xFFFFFFFF is -1);
            // anything larger is refused before it can overflow.
            constexpr std::int64_t kMaxLiteral = 0xFFFFFFFF;
            std::size_t j = i;
            int base = 10;
            if (c == '0' && j + 1 < src.size() && (src[j + 1] == 'x' || src[j + 1] == 'X')) {
                base = 16;
                j += 2;
            }
            std::int64_t value = 0;
            while (j < src.size() &&
                   (base == 16 ? std::isxdigit(static_cast<unsigned char>(src[j]))
                               : std::isdigit(static_cast<unsigned char>(src[j]))) != 0) {
                const char d = static_cast<char>(std::tolower(static_cast<unsigned char>(src[j])));
                const int digit = d <= '9' ? d - '0' : d - 'a' + 10;
                if (value > (kMaxLiteral - digit) / base) {
                    throw ParseError("integer literal out of range", line);
                }
                value = value * base + digit;
                ++j;
            }
            push(Tok::Number, {}, static_cast<std::int32_t>(value));
            i = j;
            continue;
        }
        if (c == '\'') {
            std::size_t j = i + 1;
            if (j >= src.size()) {
                throw ParseError("unterminated char literal", line);
            }
            char v = src[j];
            if (v == '\\') {
                ++j;
                if (j >= src.size()) {
                    throw ParseError("unterminated char literal", line);
                }
                v = unescape(src[j], line);
            }
            ++j;
            if (j >= src.size() || src[j] != '\'') {
                throw ParseError("unterminated char literal", line);
            }
            push(Tok::CharLit, {}, static_cast<std::int32_t>(static_cast<unsigned char>(v)));
            i = j + 1;
            continue;
        }
        if (c == '"') {
            std::string s;
            std::size_t j = i + 1;
            while (j < src.size() && src[j] != '"') {
                char v = src[j];
                if (v == '\\') {
                    ++j;
                    if (j >= src.size()) {
                        break;
                    }
                    v = unescape(src[j], line);
                }
                if (v == '\n') {
                    ++line;
                }
                s.push_back(v);
                ++j;
            }
            if (j >= src.size()) {
                throw ParseError("unterminated string literal", line);
            }
            push(Tok::StringLit, std::move(s));
            i = j + 1;
            continue;
        }
        // operators, longest-match first
        const auto two = (i + 1 < src.size()) ? src.substr(i, 2) : std::string{};
        if (two == "==") {
            push(Tok::EqEq);
            i += 2;
            continue;
        }
        if (two == "!=") {
            push(Tok::NotEq);
            i += 2;
            continue;
        }
        if (two == "<=") {
            push(Tok::Le);
            i += 2;
            continue;
        }
        if (two == ">=") {
            push(Tok::Ge);
            i += 2;
            continue;
        }
        if (two == "&&") {
            push(Tok::AndAnd);
            i += 2;
            continue;
        }
        if (two == "||") {
            push(Tok::OrOr);
            i += 2;
            continue;
        }
        if (two == "<<") {
            push(Tok::Shl);
            i += 2;
            continue;
        }
        if (two == ">>") {
            push(Tok::Shr);
            i += 2;
            continue;
        }
        if (two == "+=") {
            push(Tok::PlusAssign);
            i += 2;
            continue;
        }
        if (two == "-=") {
            push(Tok::MinusAssign);
            i += 2;
            continue;
        }
        if (two == "++") {
            push(Tok::PlusPlus);
            i += 2;
            continue;
        }
        if (two == "--") {
            push(Tok::MinusMinus);
            i += 2;
            continue;
        }
        switch (c) {
        case '(':
            push(Tok::LParen);
            break;
        case ')':
            push(Tok::RParen);
            break;
        case '{':
            push(Tok::LBrace);
            break;
        case '}':
            push(Tok::RBrace);
            break;
        case '[':
            push(Tok::LBracket);
            break;
        case ']':
            push(Tok::RBracket);
            break;
        case ';':
            push(Tok::Semi);
            break;
        case ',':
            push(Tok::Comma);
            break;
        case '=':
            push(Tok::Assign);
            break;
        case '+':
            push(Tok::Plus);
            break;
        case '-':
            push(Tok::Minus);
            break;
        case '*':
            push(Tok::Star);
            break;
        case '/':
            push(Tok::Slash);
            break;
        case '%':
            push(Tok::Percent);
            break;
        case '&':
            push(Tok::Amp);
            break;
        case '|':
            push(Tok::Pipe);
            break;
        case '^':
            push(Tok::Caret);
            break;
        case '~':
            push(Tok::Tilde);
            break;
        case '!':
            push(Tok::Bang);
            break;
        case '<':
            push(Tok::Lt);
            break;
        case '>':
            push(Tok::Gt);
            break;
        case '?':
            push(Tok::Question);
            break;
        case ':':
            push(Tok::Colon);
            break;
        default:
            throw ParseError(std::string("unexpected character '") + c + "'", line);
        }
        ++i;
    }
    out.push_back(Token{Tok::End, {}, 0, line});
    return out;
}

std::string token_name(Tok t) {
    switch (t) {
    case Tok::End:
        return "<eof>";
    case Tok::Ident:
        return "identifier";
    case Tok::Number:
        return "number";
    case Tok::CharLit:
        return "char literal";
    case Tok::StringLit:
        return "string literal";
    case Tok::KwInt:
        return "'int'";
    case Tok::KwChar:
        return "'char'";
    case Tok::KwVoid:
        return "'void'";
    case Tok::KwStatic:
        return "'static'";
    case Tok::KwIf:
        return "'if'";
    case Tok::KwElse:
        return "'else'";
    case Tok::KwWhile:
        return "'while'";
    case Tok::KwFor:
        return "'for'";
    case Tok::KwReturn:
        return "'return'";
    case Tok::KwBreak:
        return "'break'";
    case Tok::KwContinue:
        return "'continue'";
    case Tok::KwSizeof:
        return "'sizeof'";
    case Tok::LParen:
        return "'('";
    case Tok::RParen:
        return "')'";
    case Tok::LBrace:
        return "'{'";
    case Tok::RBrace:
        return "'}'";
    case Tok::LBracket:
        return "'['";
    case Tok::RBracket:
        return "']'";
    case Tok::Semi:
        return "';'";
    case Tok::Comma:
        return "','";
    case Tok::Assign:
        return "'='";
    default:
        return "operator";
    }
}

} // namespace swsec::cc
