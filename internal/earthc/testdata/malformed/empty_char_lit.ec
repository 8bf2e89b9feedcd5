int main() { return ''; }
